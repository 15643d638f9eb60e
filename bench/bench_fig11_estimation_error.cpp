// Figure 11 (§5.4): relative error of Planck's rate estimates as monitor
// oversubscription grows (so the effective sampling rate shrinks). Ground
// truth comes from running the same estimator over the sender's complete
// transmit trace (the paper's full-tcpdump methodology); the collector's
// estimates are compared at matching times. Error stays ~3%.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "bench_util.hpp"
#include "core/rate_estimator.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "stats/samples.hpp"
#include "stats/table.hpp"

#include "tcp/cbr_source.hpp"
#include "workload/testbed.hpp"

using namespace planck;

namespace {

double run_case(double factor, sim::Duration duration) {
  sim::Simulation simulation;
  constexpr int kSources = 8;
  const net::TopologyGraph graph = net::make_star(
      2 * kSources,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(40)});
  workload::TestbedConfig cfg;
  workload::Testbed bed(simulation, graph, cfg);

  // Measured flow: host 0 -> host kSources, a TCP flow competing with a
  // second TCP flow for the same destination so its rate genuinely varies
  // (sawtooth around a fair share) — estimating a constant rate would be
  // trivially exact. Background CBR on other ports supplies the monitor
  // oversubscription.
  simulation.schedule_at(sim::milliseconds(4), [&] {
    bed.host(1)->start_flow(net::host_ip(kSources), 5001,
                            1'000'000'000'000LL);
  });
  const double background =
      std::max(0.0, factor * 10e9 - 10e9) / (kSources - 2);
  std::vector<std::unique_ptr<tcp::CbrSource>> sources;
  for (int f = 2; f < kSources; ++f) {
    if (background <= 0) break;
    sources.push_back(std::make_unique<tcp::CbrSource>(
        simulation, *bed.host(f), net::host_ip(kSources + f),
        static_cast<std::uint16_t>(7000 + f), 7001,
        sim::BitsPerSec{static_cast<std::int64_t>(background)}));
    sources.back()->start();
  }

  // Ground truth from the sender's complete transmit trace (the paper's
  // full-tcpdump methodology): wire timestamps per sequence number, so any
  // byte range's true transmit rate can be recomputed exactly.
  std::map<std::uint64_t, sim::Time> wire_time;
  bed.host(0)->set_tx_hook([&](const net::Packet& p) {
    if (p.payload == 0 || p.proto != net::Protocol::kTcp) return;
    wire_time.emplace(p.seq, simulation.now());  // first transmission wins
  });

  // Collector estimate for the measured flow.
  stats::Samples rel_error;
  const sim::Time measure_from = sim::milliseconds(25);
  core::BurstRateEstimator sampled;
  bed.collector_by_node(graph.switch_node(0))
      ->set_sample_hook([&](const core::Sample& s) {
        if (s.packet.payload == 0 ||
            s.packet.src_ip != net::host_ip(0) ||
            s.packet.proto != net::Protocol::kTcp) {
          return;
        }
        if (sampled.add_sample(s.received_at, s.packet.seq,
                               s.packet.payload) &&
            simulation.now() >= measure_from) {
          // Recompute the true transmit rate over exactly the byte range
          // this estimate covered (§5.4: ground truth from the sender
          // trace with the same rate estimation).
          const auto a = wire_time.find(sampled.window_start_seq());
          const auto b = wire_time.find(sampled.window_end_seq());
          if (a != wire_time.end() && b != wire_time.end() &&
              b->second > a->second) {
            const double truth =
                static_cast<double>(sampled.window_end_seq() -
                                    sampled.window_start_seq()) *
                8.0 / sim::to_seconds(b->second - a->second);
            rel_error.add(std::abs(sampled.rate_bps() - truth) / truth);
          }
        }
      });

  bed.host(0)->start_flow(net::host_ip(kSources), 5001,
                          1'000'000'000'000LL);
  simulation.run_until(measure_from + duration);
  return rel_error.mean();
}

}  // namespace

int main() {
  bench::header("Figure 11",
                "rate-estimation error vs oversubscription factor");
  const auto duration = static_cast<sim::Duration>(
      static_cast<double>(sim::milliseconds(50)) * bench::scale());
  stats::TextTable table({"oversubscription", "mean relative error"});
  for (double factor : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0}) {
    table.add_row({stats::format("%.1f", factor),
                   stats::format("%.3f", run_case(factor, duration))});
  }
  table.print();
  std::printf("\nexpected shape (paper): roughly constant ~0.03 across "
              "factors.\n");
  return 0;
}
