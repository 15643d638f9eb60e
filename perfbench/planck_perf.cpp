// The repository benchmark's harness: one workload run per process.
//
//   planck_perf --workload <name> --seed <n> [--size full|tiny]
//               [--trace <spans.json>]
//
// Builds the workload's fabric, runs its flows to completion and tears the
// fabric down, timing the three phases with a steady clock from this file
// (the simulator itself never reads a wall clock). Prints one JSON object
// on stdout: phase times, peak RSS, the determinism digest and event
// count, simulated flow completion times, the control-loop answers, and
// the output checks that failed.
//
// With --trace the run also installs an obs::Telemetry, records wall-time
// spans around every call it makes into a layer (setup sub-steps, fixed
// sim-time run slices with their event deltas, teardown, layer kernels),
// reads the layers' public counters and writes the spans once, as
// Chrome-trace JSON, when the run ends. run.py drives this binary; see
// README.md in this directory.
//
// planck-lint: allow-file(wall-clock) -- the harness times its own calls
// into the simulator; simulated time never comes from these clocks.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "controller/routing.hpp"
#include "core/collector.hpp"
#include "core/rate_estimator.hpp"
#include "net/addresses.hpp"
#include "net/link.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "switchsim/switch.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"
#include "workload/workloads.hpp"

using namespace planck;

namespace {

using Clock = std::chrono::steady_clock;

/// Kernel results land here so the timed loops cannot be optimized away.
volatile double g_sink = 0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --------------------------------------------------------------------------
// Memory
// --------------------------------------------------------------------------

/// The process's resident high-water mark.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The current resident set, after handing freed heap pages back to the
/// kernel, so that a before/after difference counts what the object built
/// in between holds.
double current_rss_mb() {
  malloc_trim(0);
  long total_pages = 0;
  long resident_pages = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &total_pages, &resident_pages) != 2) {
    resident_pages = 0;
  }
  std::fclose(f);
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --------------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------------

/// Wall-time spans around the harness's calls into each layer. All spans
/// of a process share its run id; they stay in memory and are written
/// once at the end. When disabled every call is a no-op and end() returns
/// 0, so the untraced run pays nothing.
class SpanLog {
 public:
  SpanLog(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int begin(std::string name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back(Span{std::move(name), parent, Clock::now(),
                          Clock::time_point{}, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Closes span `id` and returns its duration in seconds.
  double end(int id) {
    if (id < 0) return 0.0;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = Clock::now();
    return seconds_between(s.start, s.end);
  }

  void arg(int id, const char* key, double value) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].args.emplace_back(key, value);
  }

  /// Chrome-trace JSON (chrome://tracing, Perfetto): one complete event
  /// per span, parent links in args.
  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":\"%s\","
                   "\"span\":%zu,\"parent\":%d",
                   i == 0 ? "" : ",\n", s.name.c_str(),
                   seconds_between(origin_, s.start) * 1e6,
                   seconds_between(s.start, s.end) * 1e6, run_id_.c_str(), i,
                   s.parent);
      for (const auto& [key, value] : s.args) {
        std::fprintf(f, ",\"%s\":%.17g", key.c_str(), value);
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
    std::vector<std::pair<std::string, double>> args;
  };

  bool enabled_;
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

/// One workload: the fabric, which parts of Planck run, and the flows the
/// harness hands the program. Everything seed-dependent is derived here.
struct Plan {
  int k = 4;                    // fat-tree radix
  bool planck = true;           // mirroring + per-switch collectors
  bool te = false;              // PlanckTE attached to the controller
  bool flow_accounting = true;  // per-5-tuple switch counters
  int threads = 0;              // 0: sequential Simulation; else sharded
  std::vector<workload::FlowSpec> flows;
  // Figure 15's control loop: probe detection and reroute, check them and
  // that the fabric loses no data packet. `onset` is when the colliding
  // flow starts.
  bool control_loop = false;
  sim::Time onset = 0;
};

/// Flows unfinished at this simulated time count as failed.
constexpr sim::Time kHorizon = sim::seconds(5);
/// The run advances in run_until slices of this much simulated time,
/// traced or not, so both runs execute the same schedule.
constexpr sim::Duration kSlice = sim::milliseconds(2);

std::optional<Plan> make_plan(std::string_view name, bool tiny,
                              std::uint64_t seed) {
  Plan p;
  if (name == "control_loop_k4") {
    // Figure 15: flow 0 at line rate, flow 1 starts later on a colliding
    // route; Planck detects the collision and reroutes one of the two.
    p.k = 4;
    p.te = true;
    p.onset = tiny ? sim::milliseconds(3) : sim::milliseconds(30);
    const sim::Bytes bytes = sim::mebibytes(tiny ? 16 : 200);
    p.flows.push_back(workload::FlowSpec{0, 4, bytes, 0});
    p.flows.push_back(workload::FlowSpec{1, 5, bytes, p.onset});
    p.control_loop = true;
  } else if (name == "fabric_build_k10") {
    // PlanckTE scheme on the largest fabric whose host-pair route tables
    // fit 22 runs in the time budget; short Stride(n/2) flows.
    p.k = tiny ? 4 : 10;
    p.te = true;
    p.flow_accounting = false;
    const int hosts = p.k * p.k * p.k / 4;
    p.flows = workload::make_stride(hosts, hosts / 2,
                                    sim::kibibytes(tiny ? 256 : 1024));
  } else if (name == "bulk_static_k8") {
    // Static scheme: no mirroring, collectors or TE. Four seeded random
    // bijections at once, so every host sources and sinks four flows and
    // the FCT percentiles average over 512 flows rather than one
    // permutation's collision pattern.
    p.k = tiny ? 4 : 8;
    p.planck = false;
    p.flow_accounting = false;
    const int hosts = p.k * p.k * p.k / 4;
    sim::Rng rng(seed);
    for (int round = 0; round < 4; ++round) {
      for (const workload::FlowSpec& f : workload::make_random_bijection(
               hosts, sim::kibibytes(tiny ? 256 : 2048), rng)) {
        p.flows.push_back(f);
      }
    }
  } else if (name == "sharded_k8_t2") {
    // Sharded engine: every host sends to the same-index host of the next
    // pod, so every pod partition carries load.
    p.k = tiny ? 4 : 8;
    p.threads = 2;
    const int hosts = p.k * p.k * p.k / 4;
    const int per_pod = hosts / p.k;
    const sim::Bytes bytes = sim::mebibytes(tiny ? 1 : 4);
    for (int h = 0; h < hosts; ++h) {
      p.flows.push_back(workload::FlowSpec{h, (h + per_pod) % hosts, bytes, 0});
    }
  } else {
    return std::nullopt;
  }
  return p;
}

// --------------------------------------------------------------------------
// One measured run
// --------------------------------------------------------------------------

struct Outcome {
  double setup_s = 0;
  double run_s = 0;
  double teardown_s = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  int flows_started = 0;
  int flows_completed = 0;
  std::vector<double> fct_ms;  // completed flows only
  double detect_ms = 0;
  double detect_to_reroute_ms = 0;
  double flows_per_switch = 1;  // mean flows crossing a switch (base tree)
  std::map<std::string, double> layers;
  std::vector<std::string> failures;
};

/// Sum of the gauges called `name` over every component starting with
/// `component_prefix`.
double sum_gauges(const obs::MetricRegistry& registry,
                  std::string_view component_prefix, std::string_view name) {
  double total = 0;
  registry.visit([&](const std::string& component, const std::string& metric,
                     const obs::Counter*, const obs::Gauge* gauge,
                     const obs::Histogram*) {
    if (gauge != nullptr && metric == name &&
        std::string_view(component).starts_with(component_prefix)) {
      total += gauge->value();
    }
  });
  return total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Nanoseconds per lookup of Routing::path over seeded (src, dst, tree)
/// triples.
double path_lookup_ns(const controller::Routing& routing, std::uint64_t seed,
                      int ops) {
  sim::Rng rng(seed);
  const auto hosts = static_cast<std::uint64_t>(routing.num_hosts());
  const auto trees = static_cast<std::uint64_t>(routing.num_trees());
  std::vector<int> triples;
  triples.reserve(static_cast<std::size_t>(ops) * 3);
  for (int i = 0; i < ops; ++i) {
    triples.push_back(static_cast<int>(rng.below(hosts)));
    triples.push_back(static_cast<int>(rng.below(hosts)));
    triples.push_back(static_cast<int>(rng.below(trees)));
  }
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < triples.size(); i += 3) {
    sink += routing.path(triples[i], triples[i + 1], triples[i + 2]).hops.size();
  }
  const double s = seconds_between(t0, Clock::now());
  g_sink = static_cast<double>(sink);
  return s * 1e9 / ops;
}

/// The layers' counters after a traced run, from public accessors and the
/// registry's gauges. A layer the workload bypasses reads 0.
void read_layer_counters(const obs::MetricRegistry& reg,
                         sim::ParallelEngine* engine, workload::Testbed& bed,
                         const te::PlanckTe* te,
                         const std::vector<tcp::TcpSender*>& senders,
                         double peak_flow_table, Outcome& out) {
  auto& L = out.layers;
  const auto events = static_cast<double>(out.events);
  L["sim.events"] = events;
  L["sim.ns_per_event"] = ratio(out.run_s * 1e9, events);
  if (engine) {
    const int parts = engine->data_partitions();
    double stalls = 0;
    double max_events = 0;
    double sum_events = 0;
    for (int pid = 0; pid < parts; ++pid) {
      stalls += static_cast<double>(engine->barrier_stalls(pid));
      const auto pe =
          static_cast<double>(engine->partition(pid).events_executed());
      max_events = std::max(max_events, pe);
      sum_events += pe;
    }
    const auto windows = static_cast<double>(engine->windows());
    L["sim.parallel.windows"] = windows;
    L["sim.parallel.stall_frac"] = ratio(stalls, windows * parts);
    L["sim.parallel.imbalance"] = ratio(max_events, sum_events / parts);
  } else {
    L["sim.parallel.windows"] = 0;
    L["sim.parallel.stall_frac"] = 0;
    L["sim.parallel.imbalance"] = 0;
  }
  L["sim.parallel.speedup_vs_t1"] = 0;

  const double mirror_sent = sum_gauges(reg, "switch", "mirror_sent");
  const double mirror_drops = sum_gauges(reg, "switch", "mirror_drops");
  L["switchsim.mirror_sent"] = mirror_sent;
  L["switchsim.mirror_drop_frac"] =
      ratio(mirror_drops, mirror_sent + mirror_drops);
  L["switchsim.no_route_drops"] = sum_gauges(reg, "switch", "no_route_drops");

  double packets = 0;
  double retransmits = 0;
  double timeouts = 0;
  for (const tcp::TcpSender* s : senders) {
    if (s == nullptr) continue;
    packets += static_cast<double>(s->stats().packets_sent.count());
    retransmits += static_cast<double>(s->stats().retransmits);
    timeouts += static_cast<double>(s->stats().timeouts);
  }
  double nic_drops = 0;
  for (int h = 0; h < bed.num_hosts(); ++h) {
    nic_drops += static_cast<double>(bed.host(h)->nic_drops());
  }
  L["tcp.packets_sent"] = packets;
  L["tcp.retransmits"] = retransmits;
  L["tcp.timeouts"] = timeouts;
  L["tcp.nic_drops"] = nic_drops;

  const double samples = sum_gauges(reg, "collector", "samples_received");
  L["core.samples"] = samples;
  L["core.inference_miss_frac"] =
      ratio(sum_gauges(reg, "collector", "inference_misses"), samples);
  L["core.congestion_events"] = sum_gauges(reg, "collector", "events_fired");
  L["core.flow_table_size"] = peak_flow_table;

  const double opened = sum_gauges(reg, "controller", "epochs_opened");
  L["controller.epochs_opened"] = opened;
  L["controller.epoch_commit_frac"] =
      ratio(sum_gauges(reg, "controller", "epochs_committed"), opened);
  L["controller.rpc_calls"] =
      static_cast<double>(bed.controller().channel().rpc_calls());
  L["controller.rpc_retries"] =
      static_cast<double>(bed.controller().channel().rpc_retries());

  const double te_events = te ? static_cast<double>(te->events_processed()) : 0;
  const double te_reroutes = te ? static_cast<double>(te->reroutes()) : 0;
  L["te.events_processed"] = te_events;
  L["te.reroutes"] = te_reroutes;
  L["te.reroute_per_event"] = ratio(te_reroutes, te_events);
}

Outcome run_once(const Plan& plan, std::uint64_t seed, int threads,
                 bool tiny, SpanLog& log, int parent) {
  Outcome out;
  const bool traced = log.enabled();
  const bool sharded = threads > 0;
  obs::Telemetry telemetry;  // installed only when traced

  // ---- setup: graph, (partition map), Testbed with routes installed, TE,
  // flows scheduled.
  const auto t0 = Clock::now();
  const int setup_span = log.begin("setup", parent);

  int span = log.begin("net.topology_build", setup_span);
  auto graph =
      std::make_unique<net::TopologyGraph>(net::make_fat_tree(
      plan.k, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)}));
  out.layers["net.topology_build_s"] = log.end(span);

  std::unique_ptr<net::PartitionMap> pmap;
  if (sharded || traced) {
    span = log.begin("net.partition_map", setup_span);
    pmap = std::make_unique<net::PartitionMap>(net::make_partition_map(*graph));
    out.layers["net.partition_map_s"] = log.end(span);
  }

  if (traced) {
    // The route plane on its own: build time, memory held, lookup cost,
    // and how many of the workload's flows cross each switch.
    const double rss0 = current_rss_mb();
    span = log.begin("controller.routing_build", setup_span);
    auto routing = std::make_unique<controller::Routing>(*graph);
    out.layers["controller.routing_build_s"] = log.end(span);
    out.layers["controller.routing_rss_mb"] = current_rss_mb() - rss0;
    std::size_t crossings = 0;
    for (const workload::FlowSpec& f : plan.flows) {
      crossings += routing->path(f.src, f.dst, 0).hops.size();
    }
    out.flows_per_switch =
        std::max(1.0, static_cast<double>(crossings) /
                          static_cast<double>(graph->num_switches()));
    span = log.begin("kernel.controller.path_lookup", setup_span);
    out.layers["controller.path_lookup_ns"] =
        path_lookup_ns(*routing, seed, tiny ? 20'000 : 400'000);
    log.end(span);
    routing.reset();
  }

  std::unique_ptr<sim::ParallelEngine> engine;
  std::unique_ptr<sim::Simulation> simulation;
  if (sharded) {
    engine = std::make_unique<sim::ParallelEngine>(pmap->num_partitions,
                                                   pmap->lookahead(), threads);
    if (traced) engine->set_telemetry(&telemetry);
  } else {
    simulation = std::make_unique<sim::Simulation>();
    if (traced) simulation->set_telemetry(&telemetry);
  }

  workload::TestbedConfig cfg;
  cfg.enable_planck = plan.planck;
  cfg.switch_config.flow_accounting = plan.flow_accounting;
  cfg.seed = seed;
  cfg.controller_config.seed = seed ^ 0x5eed;
  const double rss_before_bed = traced ? current_rss_mb() : 0.0;
  span = log.begin("workload.testbed_build", setup_span);
  auto bed = sharded ? std::make_unique<workload::Testbed>(*engine, *pmap,
                                                           *graph, cfg)
                     : std::make_unique<workload::Testbed>(*simulation, *graph,
                                                           cfg);
  out.layers["workload.testbed_build_s"] = log.end(span);
  if (traced) {
    out.layers["workload.testbed_rss_mb"] = current_rss_mb() - rss_before_bed;
  }

  std::unique_ptr<te::PlanckTe> te;
  sim::Time detection = -1;
  sim::Time response = -1;
  if (plan.te) {
    span = log.begin("te.attach", setup_span);
    te = std::make_unique<te::PlanckTe>(bed->sim(), bed->controller(),
                                        te::PlanckTeConfig{});
    log.end(span);
  }
  if (plan.control_loop) {
    // Detection: the first congestion event naming two flows after the
    // collision onset. Response: the first data sample carrying a shadow
    // routing MAC (the paper's definition, Figure 15).
    bed->controller().subscribe_congestion(
        [&detection, onset = plan.onset](const core::CongestionEvent& e) {
          if (detection < 0 && e.detected_at >= onset && e.flows.size() >= 2) {
            detection = e.detected_at;
          }
        });
    for (const auto& c : bed->collectors()) {
      c->set_sample_hook([&response](const core::Sample& s) {
        if (response < 0 && s.packet.payload > 0 &&
            net::is_shadow_mac(s.packet.dst_mac)) {
          response = s.received_at;
        }
      });
    }
  }

  span = log.begin("workload.flows_schedule", setup_span);
  const int n = static_cast<int>(plan.flows.size());
  std::vector<tcp::TcpSender*> senders(plan.flows.size(), nullptr);
  std::vector<double> fct(plan.flows.size(), -1.0);
  std::atomic<int> done{0};
  for (int i = 0; i < n; ++i) {
    const workload::FlowSpec& f = plan.flows[static_cast<std::size_t>(i)];
    tcp::Host* host = bed->host(f.src);
    // Completion callbacks run on the sender's partition: each writes only
    // its own slot and counts itself done. None stops the simulation, so
    // every partition runs each slice to its end whatever the thread timing.
    const auto start = [&senders, &fct, &done, host, i, dst = f.dst,
                        bytes = f.bytes.count()] {
      senders[static_cast<std::size_t>(i)] = host->start_flow(
          net::host_ip(dst), 5001, bytes,
          [&fct, &done, i](const tcp::FlowStats& s) {
            fct[static_cast<std::size_t>(i)] =
                sim::to_milliseconds(s.completed_at - s.started_at);
            done.fetch_add(1);
          });
    };
    if (f.start_offset > 0) {
      host->simulation().schedule_at(f.start_offset, start);
    } else {
      start();
    }
  }
  log.end(span);
  out.flows_started = n;
  log.end(setup_span);

  // ---- run: fixed sim-time slices (identical traced and untraced, so the
  // schedule and digest match), through the slice in which the last flow
  // completes.
  const auto t1 = Clock::now();
  out.setup_s = seconds_between(t0, t1);
  const int run_span = log.begin("run", parent);
  std::uint64_t events_before = 0;
  double peak_flow_table = 0;
  for (sim::Time t = kSlice;; t += kSlice) {
    const sim::Time deadline = std::min(t, kHorizon);
    const int slice_span = log.begin("run.slice", run_span);
    if (engine) {
      engine->run_until(deadline);
    } else {
      simulation->run_until(deadline);
    }
    if (traced) {
      const std::uint64_t ev =
          engine ? engine->events_executed() : simulation->events_executed();
      log.arg(slice_span, "events", static_cast<double>(ev - events_before));
      log.arg(slice_span, "sim_end_ms", sim::to_milliseconds(deadline));
      events_before = ev;
      peak_flow_table =
          std::max(peak_flow_table, sum_gauges(telemetry.metrics(),
                                               "collector", "flow_table_size"));
    }
    log.end(slice_span);
    if (done.load() == n || deadline >= kHorizon) break;
  }
  const auto t2 = Clock::now();
  out.run_s = seconds_between(t1, t2);
  log.end(run_span);

  // ---- results, read before teardown.
  out.events = engine ? engine->events_executed() : simulation->events_executed();
  out.digest =
      engine ? engine->determinism_digest() : simulation->determinism_digest();
  for (double v : fct) {
    if (v >= 0) out.fct_ms.push_back(v);
  }
  out.flows_completed = static_cast<int>(out.fct_ms.size());
  if (out.flows_completed != n) {
    out.failures.push_back(std::to_string(n - out.flows_completed) +
                           " flows unfinished at the horizon");
  }
  if (detection >= 0) out.detect_ms = sim::to_milliseconds(detection - plan.onset);
  if (detection >= 0 && response >= detection) {
    out.detect_to_reroute_ms = sim::to_milliseconds(response - detection);
  }
  if (plan.control_loop) {
    if (detection < 0) out.failures.push_back("no congestion detection");
    if (response < 0 || te->reroutes() == 0) {
      out.failures.push_back("no reroute onto a shadow tree");
    }
    // The paper's zero-loss claim: the fabric drops no data packet. Mirror
    // replicas dropped at a monitor port are Planck's sampling, not loss.
    // Flow 0's retransmit count is not the test: on some seeds flow 0
    // retransmits after the reroute although nothing was dropped.
    std::uint64_t data_drops = 0;
    for (int i = 0; i < bed->num_switches(); ++i) {
      const switchsim::Switch* sw = bed->switch_by_index(i);
      for (int port = 0; port < sw->num_ports(); ++port) {
        if (port == sw->monitor_port()) continue;
        data_drops += static_cast<std::uint64_t>(sw->counters(port).drops.count());
      }
      data_drops += sw->no_route_drops() + sw->fault_drops();
    }
    for (int h = 0; h < bed->num_hosts(); ++h) {
      data_drops += bed->host(h)->nic_drops();
    }
    if (data_drops != 0) {
      out.failures.push_back(std::to_string(data_drops) +
                             " data packets dropped (paper: zero loss)");
    }
  }

  if (traced) {
    read_layer_counters(telemetry.metrics(), engine.get(), *bed, te.get(),
                        senders, peak_flow_table, out);
  }

  // ---- teardown: destructors, innermost first.
  const auto t3 = Clock::now();
  const int teardown_span = log.begin("teardown", parent);
  te.reset();
  bed.reset();
  engine.reset();
  simulation.reset();
  pmap.reset();
  graph.reset();
  out.teardown_s = seconds_between(t3, Clock::now());
  log.end(teardown_span);
  out.layers["workload.teardown_s"] = out.teardown_s;
  return out;
}

// --------------------------------------------------------------------------
// Layer kernels (traced runs only): the hot call of one layer in a loop on
// inputs generated here.
// --------------------------------------------------------------------------

/// EventQueue schedule + pop in steady state, with the simulator's mix of
/// typed packet deliveries and typed calls.
double wheel_ns_per_op(std::uint64_t seed, int ops) {
  sim::Rng rng(seed);
  sim::EventQueue q;
  std::uint64_t sink = 0;
  sim::Time t = 0;
  net::Packet pkt;
  pkt.payload = 1460;
  const auto call_fn = [](void* s, std::uint32_t) {
    ++*static_cast<std::uint64_t*>(s);
  };
  const auto packet_fn = [](void* s, std::uint32_t, const net::Packet& p) {
    *static_cast<std::uint64_t*>(s) += static_cast<std::uint64_t>(p.payload);
  };
  std::vector<sim::Duration> delays(static_cast<std::size_t>(ops) + 4096);
  for (auto& d : delays) {
    const auto r = rng.below(100);
    d = r < 60   ? 1231  // 1500 B at 10 GbE
        : r < 80 ? sim::microseconds(5)
        : r < 95 ? static_cast<sim::Duration>(rng.below(100))
                 : sim::microseconds(200);
  }
  std::size_t k = 0;
  for (int i = 0; i < 4096; ++i) q.push_packet(t + delays[k++], &sink, 0, packet_fn, pkt);
  const auto t0 = Clock::now();
  for (int i = 0; i < ops; ++i) {
    q.run_top(&t);
    const sim::Duration d = delays[k++];
    if (d == 1231) {
      q.push_packet(t + d, &sink, 0, packet_fn, pkt);
    } else {
      q.push_call(t + d, &sink, 0, call_fn);
    }
  }
  const double s = seconds_between(t0, Clock::now());
  g_sink = static_cast<double>(sink);
  return s * 1e9 / ops;
}

/// Switch::handle_packet on a MAC-table hit, draining the egress port as
/// the packets go.
double forward_ns_per_pkt(int packets) {
  sim::Simulation simulation;
  switchsim::Switch sw(simulation, "bench", 4, switchsim::SwitchConfig{});
  net::Link link(simulation, sim::gigabits_per_sec(10), 0);
  struct Sink : net::Node {
    void handle_packet(const net::Packet&, int) override {}
  } sink;
  link.connect(&sink, 0);
  sw.attach_link(1, &link);
  switchsim::RuleActions a;
  a.out_port = 1;
  sw.rules().set_mac_rule(net::host_mac(1), a);
  net::Packet p;
  p.dst_mac = net::host_mac(1);
  p.src_ip = net::host_ip(0);
  p.dst_ip = net::host_ip(1);
  p.payload = 1460;
  sim::Time t = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < packets; ++i) {
    sw.handle_packet(p, 0);
    t += 1231;
    simulation.run_until(t);
  }
  return seconds_between(t0, Clock::now()) * 1e9 / packets;
}

/// Collector::handle_packet with `flows` interleaved flows, the number of
/// the workload's flows that cross a switch on average.
double intake_ns_per_sample(int flows, int samples) {
  sim::Simulation simulation;
  core::Collector collector(simulation, "bench", 0, core::CollectorConfig{});
  net::SwitchRouteView view;
  std::vector<net::Packet> packets;
  for (int f = 0; f < flows; ++f) {
    net::Packet p;
    p.src_mac = net::host_mac(f % 16);
    p.dst_mac = net::host_mac((f + 1) % 16);
    p.src_ip = net::host_ip(f % 16);
    p.dst_ip = net::host_ip((f + 1) % 16);
    p.src_port = static_cast<std::uint16_t>(10000 + f);
    p.dst_port = 5001;
    p.payload = 1460;
    view.out_port_by_dst[p.dst_mac] = (f + 1) % 16;
    view.in_port_by_pair[net::MacPair{p.src_mac, p.dst_mac}] = f % 16;
    packets.push_back(p);
  }
  collector.update_route_view(std::move(view));
  const auto t0 = Clock::now();
  for (int i = 0; i < samples; ++i) {
    net::Packet& p = packets[static_cast<std::size_t>(i % flows)];
    collector.handle_packet(p, 0);
    p.seq += 1460;
  }
  return seconds_between(t0, Clock::now()) * 1e9 / samples;
}

/// BurstRateEstimator::add_sample on a line-rate sequence stream.
double estimator_ns_per_sample(int samples) {
  core::BurstRateEstimator est;
  std::uint64_t seq = 0;
  sim::Time t = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < samples; ++i) {
    est.add_sample(t, seq, 1460);
    seq += 1460;
    t += 1231;
  }
  const double s = seconds_between(t0, Clock::now());
  g_sink = est.rate_bps();
  return s * 1e9 / samples;
}

// --------------------------------------------------------------------------
// Output
// --------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

const char* arg_value(int argc, char** argv, std::string_view flag,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == flag) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = arg_value(argc, argv, "--workload", "");
  const std::uint64_t seed =
      std::strtoull(arg_value(argc, argv, "--seed", "1"), nullptr, 10);
  const bool tiny = std::string_view(arg_value(argc, argv, "--size", "full")) == "tiny";
  const std::string trace_path = arg_value(argc, argv, "--trace", "");

  const std::optional<Plan> plan = make_plan(workload, tiny, seed);
  if (!plan) {
    std::fprintf(stderr, "planck_perf: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const bool traced = !trace_path.empty();
  SpanLog log(traced, workload + "-seed" + std::to_string(seed));
  const int root = log.begin(workload, -1);
  Outcome out = run_once(*plan, seed, plan->threads, tiny, log, root);

  if (traced) {
    auto& L = out.layers;
    if (plan->threads > 1) {
      // The 1-thread engine on the same inputs: the speedup, and the
      // digest the threaded run must reproduce.
      const int span = log.begin("sharded.t1_rerun", root);
      SpanLog quiet(false, "");
      const Outcome t1 = run_once(*plan, seed, 1, tiny, quiet, -1);
      log.end(span);
      L["sim.parallel.speedup_vs_t1"] = ratio(t1.run_s, out.run_s);
      if (t1.digest != out.digest || t1.events != out.events) {
        out.failures.push_back("2-thread digest differs from 1-thread");
      }
    }
    const int kernels = log.begin("kernels", root);
    const int scale = tiny ? 20 : 1;
    int span = log.begin("kernel.sim.wheel", kernels);
    L["sim.wheel_ns_per_op"] = wheel_ns_per_op(seed, 2'000'000 / scale);
    log.end(span);
    span = log.begin("kernel.switchsim.forward", kernels);
    L["switchsim.forward_ns_per_pkt"] = forward_ns_per_pkt(400'000 / scale);
    log.end(span);
    span = log.begin("kernel.core.intake", kernels);
    const int flows = static_cast<int>(std::lround(out.flows_per_switch));
    L["core.intake_ns_per_sample"] = intake_ns_per_sample(flows, 1'000'000 / scale);
    log.arg(span, "flows", flows);
    log.end(span);
    span = log.begin("kernel.core.estimator", kernels);
    L["core.estimator_ns_per_sample"] = estimator_ns_per_sample(4'000'000 / scale);
    log.end(span);
    log.end(kernels);
  }
  log.end(root);

  std::vector<double> sorted = out.fct_ms;
  std::sort(sorted.begin(), sorted.end());
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%d,"
              "\"traced\":%s,",
              workload.c_str(), static_cast<unsigned long long>(seed),
              plan->threads,
              traced ? "true" : "false");
  std::printf("\"setup_s\":%.9g,\"run_s\":%.9g,\"teardown_s\":%.9g,"
              "\"wall_s\":%.9g,\"peak_rss_mb\":%.9g,",
              out.setup_s, out.run_s, out.teardown_s,
              out.setup_s + out.run_s + out.teardown_s, peak_rss_mb());
  std::printf("\"events\":%llu,\"digest\":\"%016llx\",\"flows_started\":%d,"
              "\"flows_completed\":%d,\"fct_samples\":%zu,"
              "\"fct_p50_ms\":%.9g,\"fct_p90_ms\":%.9g,"
              "\"detect_ms\":%.9g,\"detect_to_reroute_ms\":%.9g,",
              static_cast<unsigned long long>(out.events),
              static_cast<unsigned long long>(out.digest), out.flows_started,
              out.flows_completed, sorted.size(), percentile(sorted, 50),
              percentile(sorted, 90), out.detect_ms, out.detect_to_reroute_ms);
  std::printf("\"failures\":[");
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",", json_escape(out.failures[i]).c_str());
  }
  std::printf("],\"layers\":{");
  bool first = true;
  if (traced) {
    for (const auto& [name, value] : out.layers) {
      std::printf("%s\"%s\":%.9g", first ? "" : ",", name.c_str(), value);
      first = false;
    }
  }
  std::printf("}}\n");

  if (traced && !log.write(trace_path)) {
    std::fprintf(stderr, "planck_perf: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  return out.failures.empty() ? 0 : 1;
}
