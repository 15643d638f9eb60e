// Epoch'd control plane under chaos (DESIGN.md §10): a fault matrix of
// link cuts + switch crashes over a lossy control channel, at two
// severities, with the collector backpressure plane engaged. Reports the
// route-program ledger (opened/committed/fallbacks/stale commits), switch
// bank flips, crash resyncs, the worst observed blackhole window, and
// whether same-seed runs stayed digest-identical. A targeted failsafe
// scenario (reroute through a freshly-crashed ingress) pins the
// fall-back-to-last-good path so "fallbacks observed" is not left to the
// random schedule.
//
// Exits nonzero when an epoch invariant the matrix is supposed to
// demonstrate does not hold: a same-seed digest mismatch, no fallback
// observed anywhere, or a blackhole window past the contract bound —
// so the chaos-matrix ctest smoke is just running this binary.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault_injector.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

using namespace planck;

namespace {

struct Severity {
  const char* name;
  double channel_loss;
  int num_faults;
  sim::Duration max_down;
};

struct CellResult {
  std::uint64_t digest = 0;
  std::uint64_t opened = 0;
  std::uint64_t committed = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t stale_commits = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t failed_reroutes = 0;
  std::uint64_t bank_flips = 0;    // switch-side epoch commits
  std::uint64_t events_shed = 0;
  double max_blackhole_us = 0.0;
  int completed = 0;
};

CellResult run_cell(const Severity& sv, std::uint64_t seed) {
  sim::Simulation simulation;
  const net::TopologyGraph graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.controller_config.channel.loss_prob = sv.channel_loss;
  cfg.controller_config.channel.seed = seed * 7919;
  cfg.collector_config.backpressure.queue_capacity = 32;
  cfg.collector_config.backpressure.sample_down_watermark = 8;
  cfg.collector_config.backpressure.shed_watermark = 16;
  cfg.collector_config.backpressure.sweep_watermark = 24;
  workload::Testbed bed(simulation, graph, cfg);
  te::PlanckTe te(simulation, bed.controller(), te::PlanckTeConfig{});
  fault::FaultInjector inj(simulation, bed, seed);

  fault::ChaosConfig chaos;
  chaos.num_faults = sv.num_faults;
  chaos.max_down = sv.max_down;
  chaos.include_collectors = false;  // the reroute plane is what's under test
  inj.plan_random(chaos);

  constexpr int kFlows = 6;
  std::vector<tcp::FlowStats> stats(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    bed.host(i)->start_flow(net::host_ip((i + 8) % 16), 5001,
                            16 * 1024 * 1024,
                            [&stats, i](const tcp::FlowStats& s) {
                              stats[static_cast<std::size_t>(i)] = s;
                            });
  }
  // The cross-component invariants must hold mid-chaos, not just at rest.
  for (sim::Time t = sim::milliseconds(5); t <= sim::milliseconds(100);
       t += sim::milliseconds(5)) {
    simulation.schedule_at(t, [&inj] { inj.check_epoch_invariants(); });
  }

  simulation.run_until(sim::seconds(2));
  inj.check_epoch_invariants();

  CellResult r;
  r.digest = simulation.determinism_digest();
  const controller::Controller& ctrl = bed.controller();
  r.opened = ctrl.epochs().opened();
  r.committed = ctrl.epochs().committed();
  r.fallbacks = ctrl.epochs().fallbacks();
  r.stale_commits = ctrl.epochs().stale_commits();
  r.resyncs = ctrl.resyncs();
  r.failed_reroutes = ctrl.failed_reroutes();
  r.max_blackhole_us = sim::to_microseconds(ctrl.max_blackhole_observed());
  for (int i = 0; i < bed.num_switches(); ++i) {
    r.bank_flips += bed.switch_by_index(i)->epochs_committed();
  }
  for (const auto& collector : bed.collectors()) {
    r.events_shed += collector->events_shed();
  }
  for (const tcp::FlowStats& s : stats) r.completed += s.complete ? 1 : 0;
  return r;
}

/// Deterministic failsafe exercise: an OpenFlow reroute through an ingress
/// that just crashed. The stage RPC burns its budget, the program rolls
/// back to last-good, and the recovered switch re-syncs — guaranteed
/// fallbacks/resyncs independent of the random schedule. Returns the
/// fall-back latency (reroute issued -> assignment restored) in
/// microseconds, or a negative value if the failsafe never engaged.
double run_targeted_failsafe(CellResult& out) {
  sim::Simulation simulation;
  const net::TopologyGraph graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  cfg.controller_config.heartbeat_interval = sim::milliseconds(2);
  cfg.controller_config.channel.rpc_timeout = sim::microseconds(500);
  cfg.controller_config.channel.rpc_max_attempts = 4;
  workload::Testbed bed(simulation, graph, cfg);
  fault::FaultInjector inj(simulation, bed, 1);
  controller::Controller& ctrl = bed.controller();

  const net::FlowKey key{net::host_ip(0), net::host_ip(15), 10000, 5001,
                         net::Protocol::kTcp};
  const net::TopologyShape& shape = graph.shape();
  const int ingress = graph.switch_node(
      shape.edge_switch_index(shape.pod_of_host(0), shape.edge_of_host(0)));

  // An acked rule first, so recovery has state to re-sync...
  ctrl.reroute_flow(key, 2, controller::RerouteMechanism::kOpenFlow);
  // ...then a crash window and a reroute into it.
  inj.schedule_switch_outage(sim::milliseconds(20), sim::milliseconds(30),
                             ingress);
  sim::Time issued = -1;
  sim::Time fell_back = -1;
  simulation.schedule_at(sim::milliseconds(21), [&] {
    issued = simulation.now();
    ctrl.reroute_flow(key, 3, controller::RerouteMechanism::kOpenFlow);
  });
  // Poll the assignment: the optimistic tree 3 must revert to the
  // last-good tree 2 once the program fails against the dead ingress.
  for (sim::Time t = sim::milliseconds(22); t <= sim::milliseconds(300);
       t += sim::microseconds(100)) {
    simulation.schedule_at(t, [&] {
      if (fell_back < 0 && issued >= 0 && ctrl.tree_of(key) == 2) {
        fell_back = simulation.now();
      }
    });
  }
  simulation.run_until(sim::seconds(1));

  out.fallbacks = ctrl.epochs().fallbacks();
  out.resyncs = ctrl.resyncs();
  out.failed_reroutes = ctrl.failed_reroutes();
  out.committed = ctrl.epochs().committed();
  out.digest = simulation.determinism_digest();
  if (fell_back < 0) return -1.0;
  return sim::to_microseconds(fell_back - issued);
}

void report_cell(bench::JsonReport& rep, const std::string& name,
                 const CellResult& r, bool digest_stable) {
  std::printf(
      "%-18s opened %3llu  committed %3llu  fallbacks %2llu  stale %2llu  "
      "resyncs %2llu  flips %4llu  shed %3llu  "
      "max-blackhole %7.0f us  flows %d/6  digest %s\n",
      name.c_str(), static_cast<unsigned long long>(r.opened),
      static_cast<unsigned long long>(r.committed),
      static_cast<unsigned long long>(r.fallbacks),
      static_cast<unsigned long long>(r.stale_commits),
      static_cast<unsigned long long>(r.resyncs),
      static_cast<unsigned long long>(r.bank_flips),
      static_cast<unsigned long long>(r.events_shed), r.max_blackhole_us,
      r.completed, digest_stable ? "stable" : "UNSTABLE");
  obs::MetricRegistry& m = rep.metrics();
  m.gauge(name, "epochs_opened").set(static_cast<double>(r.opened));
  m.gauge(name, "epochs_committed").set(static_cast<double>(r.committed));
  m.gauge(name, "fallbacks").set(static_cast<double>(r.fallbacks));
  m.gauge(name, "stale_commits").set(static_cast<double>(r.stale_commits));
  m.gauge(name, "resyncs").set(static_cast<double>(r.resyncs));
  m.gauge(name, "failed_reroutes")
      .set(static_cast<double>(r.failed_reroutes));
  m.gauge(name, "bank_flips").set(static_cast<double>(r.bank_flips));
  m.gauge(name, "events_shed").set(static_cast<double>(r.events_shed));
  m.gauge(name, "max_blackhole_us").set(r.max_blackhole_us);
  m.gauge(name, "flows_completed").set(static_cast<double>(r.completed));
  m.gauge(name, "digest_stable").set(digest_stable ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Epoch flip chaos matrix",
                "atomic route-program flips + last-good failsafe under "
                "link cuts, switch crashes, and channel loss");
  bench::JsonReport rep(argc, argv);

  const Severity severities[] = {
      {"mild", 0.02, 4, sim::milliseconds(8)},
      {"harsh", 0.15, 10, sim::milliseconds(20)},
  };
  const int trials = bench::runs(2);
  const sim::Duration bound = controller::kMaxBlackholeWindow;

  bool all_stable = true;
  bool bound_held = true;
  std::uint64_t total_fallbacks = 0;
  for (const Severity& sv : severities) {
    for (int t = 0; t < trials; ++t) {
      const std::uint64_t seed = 11 + 100 * static_cast<std::uint64_t>(t);
      const CellResult a = run_cell(sv, seed);
      const CellResult b = run_cell(sv, seed);  // same seed: digest check
      const bool stable = a.digest == b.digest;
      all_stable = all_stable && stable;
      total_fallbacks += a.fallbacks;
      bound_held =
          bound_held && a.max_blackhole_us <= sim::to_microseconds(bound);
      report_cell(rep,
                  std::string("epoch_chaos.") + sv.name + ".seed" +
                      std::to_string(seed),
                  a, stable);
    }
  }

  CellResult targeted;
  const double fallback_us = run_targeted_failsafe(targeted);
  std::printf(
      "\ntargeted failsafe: reroute through a crashed ingress fell back to "
      "last-good in %.0f us (fallbacks %llu, resyncs %llu after recovery)\n",
      fallback_us, static_cast<unsigned long long>(targeted.fallbacks),
      static_cast<unsigned long long>(targeted.resyncs));
  rep.metrics().gauge("epoch_failsafe", "fallback_latency_us").set(fallback_us);
  rep.metrics()
      .gauge("epoch_failsafe", "fallbacks")
      .set(static_cast<double>(targeted.fallbacks));
  rep.metrics()
      .gauge("epoch_failsafe", "resyncs")
      .set(static_cast<double>(targeted.resyncs));
  total_fallbacks += targeted.fallbacks;

  if (!rep.write()) return 1;
  if (!all_stable) {
    std::fprintf(stderr, "FAIL: same-seed chaos runs diverged\n");
    return 1;
  }
  if (total_fallbacks == 0 || fallback_us < 0) {
    std::fprintf(stderr, "FAIL: last-good failsafe never engaged\n");
    return 1;
  }
  if (!bound_held) {
    std::fprintf(stderr,
                 "FAIL: blackhole window exceeded the contract bound\n");
    return 1;
  }
  std::printf("\nall same-seed runs digest-stable; failsafe engaged; "
              "blackhole bound held\n");
  return 0;
}
