// §9.1 "Scalability", two ways.
//
// Analytic (default): the paper estimates collector-infrastructure cost at
// datacenter scale from measured per-collector capacity (14 x 10 GbE ports
// per 2U server). This bench reproduces those calculations for the
// fat-tree and Jellyfish datapoints the paper quotes, plus the per-switch
// port tax of dedicating one port in k-port switches.
//
// Simulated (--simulate): actually *runs* Planck on parametric fabrics —
// a fig15-class congestion + reroute scenario (two elephants engineered to
// collide on one edge uplink) at k = 4, 6, 8 (16 -> 128 hosts), reporting
// events/sec and detection-to-reroute latency per radix in the
// planck-metrics-v1 JSON (--json <path>). --k <radix> restricts the sweep
// to one radix (the scale_smoke ctest runs `--simulate --k 8`).
//
// Partitioned (--simulate --threads <list>): additionally sweeps the
// sharded engine (DESIGN.md §14) over fat-trees at --kpar <list> (default
// 4,8,16 — 16 to 1024 hosts; CI adds 32, 48 and 62, up to the paper's
// 64-port point of 59,582 hosts) with a per-pod ring of pod-crossing
// elephants, for each thread count in <list>. Reports the Testbed build
// time, the process's peak RSS after the cell, events/sec, the CPU time
// over the wall time of the run (the CPUs the run got, barrier waits
// included), the balance of the partition-to-worker assignment
// (critical-path events times threads over events: 1 is perfect, the
// thread count is one worker doing everything), speedup over the
// 1-thread cell, and — the exit gate — that every thread count
// reproduces the 1-thread engine digest bit-for-bit. A radix whose fabric
// cannot be built (k=64 outgrows the 10.0.x.y address plan) fails its cell
// with the reason; the sweep goes on and exits 1.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "controller/routing.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "stats/table.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

using namespace planck;

namespace {

struct FatTreeSizing {
  int k;  // switch radix
  long long hosts;
  long long switches;
};

/// Three-level fat-tree sizing with one port per switch reserved for
/// monitoring: effective radix k' = k - 1 for hosts, but the topology is
/// built with radix k' and the spare port mirrors (§9.1's accounting).
FatTreeSizing fat_tree_sizing(int radix, bool monitor_port) {
  const int k = monitor_port ? radix - 2 : radix;  // k must stay even
  FatTreeSizing s;
  s.k = k;
  s.hosts = static_cast<long long>(k) * k * k / 4;
  s.switches = 5LL * k * k / 4;
  return s;
}

void run_analytic() {
  constexpr int kPortsPerCollectorServer = 14;  // measured in the paper

  // The paper's headline datapoint: 64-port switches, one monitor port,
  // i.e. a k = 62 three-level fat-tree.
  {
    const FatTreeSizing with = fat_tree_sizing(64, /*monitor_port=*/true);
    const FatTreeSizing without = fat_tree_sizing(64, /*monitor_port=*/false);
    const long long collectors =
        (with.switches + kPortsPerCollectorServer - 1) /
        kPortsPerCollectorServer;
    std::printf("\n64-port switches, 3-level fat-tree, 1 monitor port "
                "per switch:\n");
    std::printf("  k = %d  hosts = %lld (paper: 59,582)\n", with.k,
                with.hosts);
    std::printf("  switches = %lld (paper: 4,805)\n", with.switches);
    std::printf("  collector servers = %lld (paper: ~344)\n", collectors);
    std::printf("  added machines = %.2f%% (paper: 0.58%%)\n",
                100.0 * static_cast<double>(collectors) /
                    static_cast<double>(with.hosts));
    // Same-switch-count accounting: reclaiming the edge switches' monitor
    // ports would add one host per edge switch.
    const long long edge_switches = 2LL * with.k * with.k / 4;
    (void)without;
    std::printf("  host capacity given up vs reclaiming edge monitor ports "
                "= %.1f%% (paper: 1.4%%)\n",
                100.0 * static_cast<double>(edge_switches) /
                    static_cast<double>(with.hosts + edge_switches));
  }

  // Jellyfish at equal host count needs fewer switches (paper: 3,505
  // switches, 251 collectors, 0.42% added machines). Jellyfish sizing:
  // switches n with k ports, r used for the mesh, k - r - 1 for hosts
  // (one monitor port).
  {
    const long long hosts_target = 59582;
    const int k = 64;
    // The paper's Jellyfish comparison uses full bisection bandwidth:
    // r ~= 2/3 of ports for the mesh leaves k - r hosts per switch.
    for (int host_ports : {17}) {
      const int data_ports = k - 1;  // one monitor port
      const int mesh_ports = data_ports - host_ports;
      const long long switches =
          (hosts_target + host_ports - 1) / host_ports;
      const long long collectors =
          (switches + kPortsPerCollectorServer - 1) /
          kPortsPerCollectorServer;
      std::printf("\nJellyfish, %d-port switches (%d mesh / %d host / 1 "
                  "monitor):\n",
                  k, mesh_ports, host_ports);
      std::printf("  switches = %lld (paper: 3,505)\n", switches);
      std::printf("  collector servers = %lld (paper: ~251)\n", collectors);
      std::printf("  added machines = %.2f%% (paper: 0.42%%)\n",
                  100.0 * static_cast<double>(collectors) /
                      static_cast<double>(hosts_target));
    }
  }

  // Sampling-rate tax: with one 10 GbE monitor port per k-port switch,
  // the worst-case effective sampling rate under full load.
  std::printf("\nworst-case sampling rate vs switch load (one 10G monitor "
              "port):\n");
  stats::TextTable table({"active 10G ports", "offered to mirror",
                          "effective sampling rate"});
  for (int ports : {1, 2, 4, 8, 16, 32, 63}) {
    table.add_row({stats::format("%d", ports),
                   stats::format("%d Gbps", 10 * ports),
                   stats::format("1 in %d", ports)});
  }
  table.print();
}

// ---------------------------------------------------------------------------
// Simulated sweep
// ---------------------------------------------------------------------------

struct SweepResult {
  int k = 0;
  int hosts = 0;
  int switches = 0;
  int trees = 0;
  double detect_ms = -1;             // flow-2 start -> congestion event
  double detect_to_reroute_ms = -1;  // congestion event -> shadow MAC seen
  std::uint64_t events = 0;
  double wall_seconds = 0;
  double sim_seconds = 0;
  std::uint64_t reroutes = 0;
  int flows_completed = 0;
  bool ok = false;
};

/// Two hosts outside pod 0 whose base cores coincide, so tree-0 flows from
/// hosts 0 and 1 (same edge switch) share that edge's uplink and the
/// agg->core cable — a guaranteed fig15-style collision at any radix.
bool find_colliding_destinations(const net::TopologyShape& sh, int* da,
                                 int* db) {
  std::vector<int> first(static_cast<std::size_t>(sh.num_core), -1);
  for (int h = sh.hosts_per_pod(); h < sh.num_hosts; ++h) {
    const int c = controller::Routing::base_core(h, sh.num_core);
    if (first[static_cast<std::size_t>(c)] < 0) {
      first[static_cast<std::size_t>(c)] = h;
    } else {
      *da = first[static_cast<std::size_t>(c)];
      *db = h;
      return true;
    }
  }
  return false;
}

SweepResult run_simulated(int k) {
  SweepResult r;
  r.k = k;

  sim::Simulation simulation;
  const net::TopologyGraph graph = net::make_fat_tree(
      k, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const net::TopologyShape& sh = graph.shape();
  r.hosts = sh.num_hosts;
  r.switches = sh.num_switches;
  r.trees = sh.provisioned_trees;

  int da = -1;
  int db = -1;
  if (!find_colliding_destinations(sh, &da, &db)) {
    std::fprintf(stderr, "k=%d: no colliding destination pair found\n", k);
    return r;
  }

  workload::TestbedConfig cfg;
  workload::Testbed bed(simulation, graph, cfg);
  te::PlanckTe te(simulation, bed.controller(), te::PlanckTeConfig{});

  const sim::Time t2 = sim::milliseconds(5);

  // Detection: the first congestion notification naming both flows after
  // the second elephant has started.
  sim::Time detection = -1;
  bed.controller().subscribe_congestion([&](const core::CongestionEvent& e) {
    if (detection < 0 && e.flows.size() >= 2) detection = e.detected_at;
  });
  // Response: the first sample anywhere carrying a shadow routing MAC
  // (the paper's definition: collector sees a packet with the new MAC).
  sim::Time response = -1;
  for (const auto& c : bed.collectors()) {
    c->set_sample_hook([&](const core::Sample& s) {
      if (response < 0 && s.packet.payload > 0 &&
          net::is_shadow_mac(s.packet.dst_mac)) {
        response = s.received_at;
      }
    });
  }

  const auto bytes = static_cast<std::int64_t>(
      bench::mib(48 * bench::scale()).count());
  int completed = 0;
  const auto on_done = [&](const tcp::FlowStats&) {
    if (++completed == 2) simulation.stop();
  };
  bed.host(0)->start_flow(net::host_ip(da), 5001, bytes, on_done);
  simulation.schedule_at(t2, [&] {
    bed.host(1)->start_flow(net::host_ip(db), 5001, bytes, on_done);
  });

  const auto t0 = std::chrono::steady_clock::now();
  simulation.run_until(sim::seconds(5));
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  r.events = simulation.events_executed();
  r.sim_seconds = sim::to_seconds(simulation.now());
  r.reroutes = te.reroutes();
  r.flows_completed = completed;
  if (detection >= 0) r.detect_ms = sim::to_milliseconds(detection - t2);
  if (detection >= 0 && response >= detection) {
    r.detect_to_reroute_ms = sim::to_milliseconds(response - detection);
  }
  r.ok = completed == 2 && detection >= 0 && response >= 0 &&
         r.reroutes > 0;
  return r;
}

int run_sweep(const std::vector<int>& radices, bench::JsonReport& report) {
  std::printf("\nsimulated congestion + reroute sweep (two colliding "
              "elephants from one edge, PlanckTE reroutes):\n\n");
  stats::TextTable table({"k", "hosts", "switches", "trees", "detect ms",
                          "detect->reroute ms", "events", "events/sec"});
  bool all_ok = true;
  for (int k : radices) {
    const SweepResult r = run_simulated(k);
    all_ok = all_ok && r.ok;
    table.add_row({stats::format("%d", r.k), stats::format("%d", r.hosts),
                   stats::format("%d", r.switches),
                   stats::format("%d", r.trees),
                   stats::format("%.3f", r.detect_ms),
                   stats::format("%.3f", r.detect_to_reroute_ms),
                   stats::format("%llu",
                                 static_cast<unsigned long long>(r.events)),
                   stats::format("%.2e",
                                 r.wall_seconds > 0
                                     ? static_cast<double>(r.events) /
                                           r.wall_seconds
                                     : 0.0)});
    const std::string name = "scale.k" + std::to_string(k);
    report.add(name, r.events, r.wall_seconds, r.sim_seconds);
    obs::MetricRegistry& m = report.metrics();
    m.gauge(name, "hosts").set(static_cast<double>(r.hosts));
    m.gauge(name, "switches").set(static_cast<double>(r.switches));
    m.gauge(name, "trees").set(static_cast<double>(r.trees));
    m.gauge(name, "detect_ms").set(r.detect_ms);
    m.gauge(name, "detect_to_reroute_ms").set(r.detect_to_reroute_ms);
    m.gauge(name, "reroutes").set(static_cast<double>(r.reroutes));
    m.gauge(name, "flows_completed")
        .set(static_cast<double>(r.flows_completed));
    m.gauge(name, "scenario_ok").set(r.ok ? 1.0 : 0.0);
  }
  table.print();
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: a sweep cell missed detection, reroute, or flow "
                 "completion\n");
    return 1;
  }
  std::printf("\nevery radix detected the collision and rerouted onto a "
              "shadow tree\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Partitioned (sharded-engine) sweep
// ---------------------------------------------------------------------------

/// The process's resident-set high-water mark so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// User plus system CPU seconds the process (every thread) has used so far.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct PartitionedResult {
  int k = 0;
  int threads = 0;
  int hosts = 0;
  int partitions = 0;
  std::uint64_t events = 0;
  double setup_seconds = 0;  // Testbed build
  double peak_rss_mb = 0;    // process high-water mark after the cell
  double wall_seconds = 0;
  double cpu_seconds = 0;  // user + sys over the run
  double balance = 0;      // critical-path events x threads / events
  std::uint64_t reassignments = 0;
  double sim_seconds = 0;
  std::uint64_t digest = 0;
  int flows_completed = 0;
  int flows_started = 0;
};

/// One sharded run: a per-pod ring of elephants (pod p's first host sends
/// to pod p+1's first host) so every data partition carries both endpoint
/// and transit load and every agg<->core boundary cable sees traffic.
/// Runs to a fixed sim horizon (no early stop) so every thread count
/// executes the identical schedule — the digest proves it.
PartitionedResult run_partitioned(int k, int threads) {
  PartitionedResult r;
  r.k = k;
  r.threads = threads;

  const net::TopologyGraph graph = net::make_fat_tree(
      k, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const net::PartitionMap map = net::make_partition_map(graph);
  sim::ParallelEngine engine(map.num_partitions, map.lookahead(), threads);
  r.hosts = graph.shape().num_hosts;
  r.partitions = engine.num_partitions();

  workload::TestbedConfig cfg;
  const auto setup0 = std::chrono::steady_clock::now();
  workload::Testbed bed(engine, map, graph, cfg);
  r.setup_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - setup0)
                        .count();

  const int hosts_per_pod = graph.shape().hosts_per_pod();
  const auto bytes = static_cast<std::int64_t>(
      bench::mib(2 * bench::scale()).count());
  // One flag per pod, each written only by its own partition's thread.
  std::vector<std::uint8_t> done(static_cast<std::size_t>(k), 0);
  for (int pod = 0; pod < k; ++pod) {
    const int src = pod * hosts_per_pod;
    const int dst = ((pod + 1) % k) * hosts_per_pod;
    bed.host(src)->start_flow(
        net::host_ip(dst), 5001, bytes,
        [&done, pod](const tcp::FlowStats&) {
          done[static_cast<std::size_t>(pod)] = 1;
        });
    ++r.flows_started;
  }

  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(sim::milliseconds(20));
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.cpu_seconds = cpu_seconds() - cpu0;
  r.events = engine.events_executed();
  r.balance = r.events > 0
                  ? static_cast<double>(engine.critical_path_events()) *
                        engine.threads() / static_cast<double>(r.events)
                  : 0.0;
  r.reassignments = engine.reassignments();
  r.sim_seconds = sim::to_seconds(engine.control().now());
  r.digest = engine.determinism_digest();
  for (std::uint8_t d : done) r.flows_completed += d;
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

int run_partitioned_sweep(const std::vector<int>& radices,
                          const std::vector<int>& threads,
                          bench::JsonReport& report) {
  std::printf("\nsharded-engine sweep (per-pod elephant ring, lookahead-"
              "window barriers; peak RSS is the process high-water mark "
              "after the cell, so it is cumulative):\n\n");
  stats::TextTable table({"k", "hosts", "partitions", "threads", "setup s",
                          "peak RSS MB", "events", "events/sec", "CPU/wall",
                          "balance", "speedup", "digest ok"});
  int rc = 0;
  for (int k : radices) {
    double base_eps = 0;
    std::uint64_t base_digest = 0;
    for (int t : threads) {
      const std::string name =
          "scale.k" + std::to_string(k) + ".t" + std::to_string(t);
      PartitionedResult r;
      try {
        r = run_partitioned(k, t);
      } catch (const std::exception& e) {
        // A fabric that cannot be built (k=64 outgrows the address plan)
        // fails its cell; the sweep goes on and the JSON is still written.
        std::fprintf(stderr, "FAIL: k=%d, threads=%d: %s\n", k, t,
                     e.what());
        table.add_row({stats::format("%d", k), "-", "-",
                       stats::format("%d", t), "-", "-", "-", "-", "-", "-",
                       "-", "failed"});
        report.metrics().gauge(name, "scenario_ok").set(0.0);
        rc = 1;
        continue;
      }
      const double eps = r.wall_seconds > 0
                             ? static_cast<double>(r.events) / r.wall_seconds
                             : 0.0;
      const double parallelism =
          r.wall_seconds > 0 ? r.cpu_seconds / r.wall_seconds : 0.0;
      if (t == threads.front()) {
        base_eps = eps;
        base_digest = r.digest;
      }
      const bool digest_ok = r.digest == base_digest;
      const bool complete = r.flows_completed == r.flows_started;
      // The exit gate: thread counts must be schedule-equivalent, and the
      // workload must actually finish. Speedup is reported, not gated —
      // it is a property of the host's core count, which CI checks.
      if (!digest_ok || !complete || r.events == 0) rc = 1;
      table.add_row(
          {stats::format("%d", r.k), stats::format("%d", r.hosts),
           stats::format("%d", r.partitions), stats::format("%d", r.threads),
           stats::format("%.4f", r.setup_seconds),
           stats::format("%.1f", r.peak_rss_mb),
           stats::format("%llu", static_cast<unsigned long long>(r.events)),
           stats::format("%.2e", eps), stats::format("%.2f", parallelism),
           stats::format("%.2f", r.balance),
           stats::format("%.2fx", base_eps > 0 ? eps / base_eps : 0.0),
           digest_ok ? "yes" : "NO"});
      report.add(name, r.events, r.wall_seconds, r.sim_seconds);
      obs::MetricRegistry& m = report.metrics();
      m.gauge(name, "hosts").set(static_cast<double>(r.hosts));
      m.gauge(name, "partitions").set(static_cast<double>(r.partitions));
      m.gauge(name, "threads").set(static_cast<double>(r.threads));
      m.gauge(name, "setup_s").set(r.setup_seconds);
      m.gauge(name, "peak_rss_mb").set(r.peak_rss_mb);
      m.gauge(name, "cpu_s").set(r.cpu_seconds);
      m.gauge(name, "parallelism").set(parallelism);
      m.gauge(name, "balance").set(r.balance);
      m.gauge(name, "reassignments")
          .set(static_cast<double>(r.reassignments));
      m.gauge(name, "flows_completed")
          .set(static_cast<double>(r.flows_completed));
      m.gauge(name, "digest_match").set(digest_ok ? 1.0 : 0.0);
      m.gauge(name, "speedup_vs_t1")
          .set(base_eps > 0 ? eps / base_eps : 0.0);
      m.gauge(name, "scenario_ok")
          .set(digest_ok && complete && r.events > 0 ? 1.0 : 0.0);
    }
  }
  table.print();
  if (rc != 0) {
    std::fprintf(stderr, "FAIL: a sharded cell failed to build, diverged "
                         "from the 1-thread digest or did not complete its "
                         "flows\n");
  } else {
    std::printf("\nevery thread count reproduced the 1-thread engine digest "
                "bit-for-bit\n");
  }
  return rc;
}

bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == flag) return true;
  }
  return false;
}

/// Parses a comma-separated integer list ("1,2,4").
std::vector<int> parse_int_list(const std::string& text) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string tok =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(std::atoi(tok.c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("§9.1", "collector-infrastructure cost at scale");
  bench::JsonReport report(argc, argv);

  int rc = 0;
  if (has_flag(argc, argv, "--simulate")) {
    std::vector<int> radices{4, 6, 8};
    const std::string single = bench::arg_value(argc, argv, "--k");
    if (!single.empty()) radices = {std::atoi(single.c_str())};
    rc = run_sweep(radices, report);

    // Sharded-engine sweep rides the same invocation (and JSON) when a
    // thread list is given: --threads 1,2,4 [--kpar 4,8,16].
    const std::string threads_arg = bench::arg_value(argc, argv, "--threads");
    if (!threads_arg.empty()) {
      std::vector<int> kpar{4, 8, 16};
      const std::string kpar_arg = bench::arg_value(argc, argv, "--kpar");
      if (!kpar_arg.empty()) kpar = parse_int_list(kpar_arg);
      const std::vector<int> threads = parse_int_list(threads_arg);
      if (run_partitioned_sweep(kpar, threads, report) != 0) rc = 1;
    }
  } else {
    run_analytic();
  }
  if (!report.write()) rc = 1;
  return rc;
}
