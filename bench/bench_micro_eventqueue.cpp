// Event-engine throughput: the timing-wheel scheduler against the seed
// binary-heap implementation (preserved in baseline_heap_queue.hpp), under
// a steady-state churn shaped like the fat-tree simulation's event mix —
// mostly 10 GbE serialization completions and 5 us propagation deliveries,
// a tail of timers at RTO scale that almost always get cancelled. Also
// reports whole-simulator throughput on the 16-host fat-tree testbed.
//
// Supports --json <path> (see bench_util.hpp) so CI can smoke-check the
// speedup without scraping stdout. Each wheel churn loop also reports its
// slab high-water beside its peak live events: exact counts, which CI gates
// on (cancel must free the node at once, so the slab never outgrows the
// live set). The fat-tree row reports the wheel's work counts (far files,
// re-files, far-ring nodes a peek or a re-file walked without moving them
// near), and CI bounds its re-files and its far-walked nodes by its events.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <vector>

#include "baseline_heap_queue.hpp"
#include "bench_util.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "workload/testbed.hpp"

using namespace planck;

namespace {

constexpr int kWarmup = 4096;           // steady-state pending-set size
constexpr std::int64_t kPops = 4'000'000;

// Keeps the sink counter observable so the loops aren't optimized away.
inline void benchmark_guard(std::uint64_t v) {
  asm volatile("" : : "r"(v) : "memory");
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The fat-tree event mix. The 200 ms class models RTO-scale timers; the
/// churn loops cancel those before they fire, the way TCP does.
sim::Duration draw_delay(sim::Rng& rng) {
  const auto r = rng.below(100);
  if (r < 60) return 1231;                  // 1500 B @ 10 GbE serialization
  if (r < 80) return sim::microseconds(5);  // propagation
  if (r < 95) return static_cast<sim::Duration>(rng.below(100));  // jitter
  if (r < 99) return sim::microseconds(200);  // delayed-ACK-scale timer
  return sim::milliseconds(200);              // RTO-scale timer (cancelled)
}

/// The per-run delay sequence, drawn once outside the timed regions so the
/// loops measure queue work, not RNG work. Every run sees the identical
/// sequence. Sized with slack: cancelled timers are replaced by an extra
/// push (drawn from the same stream) so the pending set stays at steady
/// state instead of draining as cancellations accumulate.
std::vector<sim::Duration> make_delays() {
  sim::Rng rng(7);
  std::vector<sim::Duration> delays(kWarmup + kPops + kPops / 16);
  for (auto& d : delays) d = draw_delay(rng);
  return delays;
}

/// Replacement delay for a cancelled RTO timer: same stream, but never
/// another RTO (which would re-enter the cancel path untracked).
sim::Duration replacement_delay(sim::Duration d) {
  return d >= sim::milliseconds(200) ? sim::microseconds(200) : d;
}

/// A wheel churn loop's memory: slab nodes ever allocated, and the peak
/// number of live events.
struct SlabUse {
  std::size_t slab_nodes = 0;
  std::size_t peak_live = 0;
};

double churn_heap(const std::vector<sim::Duration>& delays,
                  std::uint64_t* pops) {
  bench::BaselineHeapQueue q;
  std::uint64_t sink = 0;
  sim::Time t = 0;
  std::deque<bench::BaselineHeapQueue::EventId> rto;
  // Events carry a Packet in the closure — the simulator's dominant event
  // is link delivery, and the payload size is what makes heap sifts dear.
  net::Packet pkt;
  pkt.payload = 1460;
  const auto make_cb = [&sink, pkt] { sink += pkt.payload; };
  std::size_t k = 0;
  for (int i = 0; i < kWarmup; ++i) q.push(t + delays[k++], make_cb);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < kPops; ++i) {
    q.pop(&t)();
    const sim::Duration d = delays[k++];
    const bench::BaselineHeapQueue::EventId id = q.push(t + d, make_cb);
    if (d >= sim::milliseconds(200)) rto.push_back(id);
    if (rto.size() > 4) {
      q.cancel(rto.front());
      rto.pop_front();
      // Replace the cancelled timer so the pending set holds steady.
      q.push(t + replacement_delay(delays[k++]), make_cb);
    }
  }
  *pops = static_cast<std::uint64_t>(kPops);
  benchmark_guard(sink);
  return seconds_since(t0);
}

double churn_wheel(const std::vector<sim::Duration>& delays,
                   std::uint64_t* pops, SlabUse* slab) {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  sim::Time t = 0;
  std::deque<sim::EventId> rto;
  net::Packet pkt;
  pkt.payload = 1460;
  const auto make_cb = [&sink, pkt] { sink += pkt.payload; };
  std::size_t k = 0;
  for (int i = 0; i < kWarmup; ++i) q.push(t + delays[k++], make_cb);
  std::size_t peak_live = q.size();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < kPops; ++i) {
    q.run_top(&t);
    const sim::Duration d = delays[k++];
    const sim::EventId id = q.push(t + d, make_cb);
    peak_live = std::max(peak_live, q.size());
    if (d >= sim::milliseconds(200)) rto.push_back(id);
    if (rto.size() > 4) {
      q.cancel(rto.front());
      rto.pop_front();
      q.push(t + replacement_delay(delays[k++]), make_cb);
    }
  }
  *pops = static_cast<std::uint64_t>(kPops);
  *slab = SlabUse{q.slab_nodes(), peak_live};
  benchmark_guard(sink);
  return seconds_since(t0);
}

/// Same churn, but the serialization-completion class (the dominant event,
/// standing in for link delivery) goes through the typed DeliverPacket path
/// and the rest through typed Call events — the simulator's actual hot mix.
double churn_wheel_typed(const std::vector<sim::Duration>& delays,
                         std::uint64_t* pops, SlabUse* slab) {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  sim::Time t = 0;
  std::deque<sim::EventId> rto;
  net::Packet pkt;
  pkt.payload = 1460;
  const auto call_fn = [](void* s, std::uint32_t) {
    ++*static_cast<std::uint64_t*>(s);
  };
  const auto packet_fn = [](void* s, std::uint32_t, const net::Packet& p) {
    *static_cast<std::uint64_t*>(s) += p.payload;
  };
  std::size_t k = 0;
  for (int i = 0; i < kWarmup; ++i) {
    q.push_packet(t + delays[k++], &sink, 0, packet_fn, pkt);
  }
  std::size_t peak_live = q.size();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < kPops; ++i) {
    q.run_top(&t);
    const sim::Duration d = delays[k++];
    sim::EventId id = 0;
    if (d == 1231) {
      id = q.push_packet(t + d, &sink, 0, packet_fn, pkt);
    } else {
      id = q.push_call(t + d, &sink, 0, call_fn);
    }
    peak_live = std::max(peak_live, q.size());
    if (d >= sim::milliseconds(200)) rto.push_back(id);
    if (rto.size() > 4) {
      q.cancel(rto.front());
      rto.pop_front();
      q.push_call(t + replacement_delay(delays[k++]), &sink, 0, call_fn);
    }
  }
  *pops = static_cast<std::uint64_t>(kPops);
  *slab = SlabUse{q.slab_nodes(), peak_live};
  benchmark_guard(sink);
  return seconds_since(t0);
}

/// Whole-simulator throughput: 8 concurrent flows across the 16-host
/// fat-tree testbed (switches, links, collectors, TCP — everything), run
/// for 50 ms of simulated time. With `telemetry` set, a Telemetry is
/// installed (metrics registered, tracing off) — the A/B for the
/// telemetry plane's hot-path cost, which must stay within noise.
double fat_tree_end_to_end(bool telemetry, std::uint64_t* events,
                           double* sim_seconds, std::size_t* slab_nodes,
                           sim::EventQueue::Executed* by_kind,
                           sim::EventQueue::WheelWork* work) {
  sim::Simulation simulation;
  obs::Telemetry tel;
  if (telemetry) simulation.set_telemetry(&tel);
  const net::TopologyGraph graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::Testbed bed(simulation, graph, workload::TestbedConfig{});
  for (int i = 0; i < 8; ++i) {
    bed.host(i)->start_flow(net::host_ip(8 + (i + 1) % 8), 5001,
                            32 * 1024 * 1024);
  }
  const auto t0 = std::chrono::steady_clock::now();
  simulation.run_until(sim::milliseconds(50));
  const double wall = seconds_since(t0);
  *events = simulation.events_executed();
  *sim_seconds = static_cast<double>(simulation.now()) / 1e9;
  *slab_nodes = simulation.slab_nodes();
  *by_kind = simulation.events_by_kind();
  *work = simulation.wheel_work();
  simulation.set_telemetry(nullptr);
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("micro", "event-engine throughput (wheel vs seed heap)");
  bench::JsonReport report(argc, argv);

  const std::vector<sim::Duration> delays = make_delays();
  std::uint64_t pops = 0;
  const double heap_s = churn_heap(delays, &pops);
  std::printf("  %-22s %9.0f kevents/s\n", "baseline heap",
              static_cast<double>(pops) / heap_s / 1e3);
  report.add("baseline_heap_churn", pops, heap_s, 0.0);

  const auto add_slab = [&report](const char* name, const SlabUse& slab) {
    std::printf("  %-22s %9zu slab nodes for %zu peak live events\n", "",
                slab.slab_nodes, slab.peak_live);
    report.metrics().gauge(name, "slab_nodes")
        .set(static_cast<double>(slab.slab_nodes));
    report.metrics().gauge(name, "peak_live")
        .set(static_cast<double>(slab.peak_live));
  };

  SlabUse slab;
  const double wheel_s = churn_wheel(delays, &pops, &slab);
  std::printf("  %-22s %9.0f kevents/s   (%.2fx vs heap)\n", "timing wheel",
              static_cast<double>(pops) / wheel_s / 1e3, heap_s / wheel_s);
  report.add("timing_wheel_churn", pops, wheel_s, 0.0);
  add_slab("timing_wheel_churn", slab);

  const double typed_s = churn_wheel_typed(delays, &pops, &slab);
  std::printf("  %-22s %9.0f kevents/s   (%.2fx vs heap)\n",
              "timing wheel (typed)",
              static_cast<double>(pops) / typed_s / 1e3, heap_s / typed_s);
  report.add("timing_wheel_typed_churn", pops, typed_s, 0.0);
  add_slab("timing_wheel_typed_churn", slab);

  std::uint64_t events = 0;
  double sim_seconds = 0;
  std::size_t slab_nodes = 0;
  sim::EventQueue::Executed by_kind;
  sim::EventQueue::WheelWork work;
  const double e2e_s = fat_tree_end_to_end(/*telemetry=*/false, &events,
                                           &sim_seconds, &slab_nodes,
                                           &by_kind, &work);
  std::printf("  %-22s %9.0f kevents/s   (%llu events, %.0f ms simulated, "
              "%zu slab nodes)\n",
              "fat-tree end-to-end",
              static_cast<double>(events) / e2e_s / 1e3,
              static_cast<unsigned long long>(events), sim_seconds * 1e3,
              slab_nodes);
  report.add("fat_tree_end_to_end", events, e2e_s, sim_seconds);
  report.metrics().gauge("fat_tree_end_to_end", "slab_nodes")
      .set(static_cast<double>(slab_nodes));
  // The same events by kind (exact counts; they sum to `events`).
  std::printf("  %-22s %llu packet deliveries, %llu calls, %llu callbacks\n",
              "", static_cast<unsigned long long>(by_kind.packets),
              static_cast<unsigned long long>(by_kind.calls),
              static_cast<unsigned long long>(by_kind.callbacks));
  report.metrics().gauge("fat_tree_end_to_end", "packet_events")
      .set(static_cast<double>(by_kind.packets));
  report.metrics().gauge("fat_tree_end_to_end", "call_events")
      .set(static_cast<double>(by_kind.calls));
  report.metrics().gauge("fat_tree_end_to_end", "callback_events")
      .set(static_cast<double>(by_kind.callbacks));
  // The wheel's work beyond filing each event once (exact counts).
  std::printf("  %-22s %llu far files, %llu re-files, %llu far-walked\n",
              "", static_cast<unsigned long long>(work.far_files),
              static_cast<unsigned long long>(work.refiles),
              static_cast<unsigned long long>(work.far_walked));
  report.metrics().gauge("fat_tree_end_to_end", "far_files")
      .set(static_cast<double>(work.far_files));
  report.metrics().gauge("fat_tree_end_to_end", "refiles")
      .set(static_cast<double>(work.refiles));
  report.metrics().gauge("fat_tree_end_to_end", "far_walked")
      .set(static_cast<double>(work.far_walked));

  // Telemetry A/B: same run with a Telemetry installed (metrics live,
  // tracing off). The delta vs the row above is the plane's whole cost.
  std::uint64_t events_tel = 0;
  double sim_seconds_tel = 0;
  const double e2e_tel_s =
      fat_tree_end_to_end(/*telemetry=*/true, &events_tel, &sim_seconds_tel,
                          &slab_nodes, &by_kind, &work);
  std::printf("  %-22s %9.0f kevents/s   (%.2fx vs no telemetry)\n",
              "fat-tree + telemetry",
              static_cast<double>(events_tel) / e2e_tel_s / 1e3,
              e2e_s / e2e_tel_s);
  report.add("fat_tree_end_to_end_telemetry", events_tel, e2e_tel_s,
             sim_seconds_tel);

  return report.write() ? 0 : 1;
}
