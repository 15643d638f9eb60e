// Failure plane, Figure-15 style: a flow runs at line rate when the cable
// under it is cut. The switch's loss-of-signal notification crosses the
// control channel, the controller fails the flow over to a surviving
// shadow tree, and TCP recovers. Prints the fault -> detection ->
// failover -> recovery timeline and a 1 ms throughput series, for a
// healthy control channel and for one dropping 10% of its messages.

#include <cstdio>

#include "bench_util.hpp"
#include "fault/fault_injector.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "stats/timeseries.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

using namespace planck;

namespace {

struct TrialResult {
  sim::Time fault_at = -1;
  sim::Time detected = -1;   // controller marks the link down
  sim::Time failover = -1;   // reroute issued off the dead tree
  sim::Time recovered = -1;  // throughput back above 90% of line rate
  stats::TimeSeries rate;
  tcp::FlowStats stats;
  std::uint64_t rpc_retries = 0;
};

TrialResult run_trial(double channel_loss, std::uint64_t seed) {
  TrialResult r;
  sim::Simulation simulation;
  const net::TopologyGraph graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  cfg.controller_config.channel.loss_prob = channel_loss;
  cfg.controller_config.channel.seed = seed;
  workload::Testbed bed(simulation, graph, cfg);
  te::PlanckTe te(simulation, bed.controller(), te::PlanckTeConfig{});
  fault::FaultInjector inj(simulation, bed, seed);

  // Cut the flow's aggregation uplink at 20 ms, for good.
  const net::PathHop hop = bed.controller().routing().path(0, 4, 0).hops[1];
  r.fault_at = sim::milliseconds(20);
  inj.schedule_link_outage(r.fault_at, sim::seconds(10), hop.switch_node,
                           hop.out_port);

  bed.controller().subscribe_link_status([&](int node, int port, bool up) {
    if (r.detected < 0 && !up && node == hop.switch_node &&
        port == hop.out_port) {
      r.detected = simulation.now();
    }
  });

  auto* flow = bed.host(0)->start_flow(
      net::host_ip(4), 5001, 400 * 1024 * 1024,
      [&](const tcp::FlowStats& s) { r.stats = s; });

  std::int64_t prev = 0;
  for (sim::Time t = sim::milliseconds(1); t <= sim::milliseconds(300);
       t += sim::milliseconds(1)) {
    simulation.schedule_at(t, [&, t] {
      const std::int64_t una = flow->snd_una();
      const double bps = static_cast<double>(una - prev) * 8.0 / 1e-3;
      r.rate.add(t, bps);
      prev = una;
      // Either the TE app (congestion-aware) or the controller's own dead-
      // path sweep moves the flow — whichever hears about the link first.
      if (r.failover < 0 &&
          te.failovers() + bed.controller().failovers() > 0) {
        r.failover = simulation.now();
      }
      if (r.recovered < 0 && t > r.fault_at && bps > 0.9 * 9.4e9) {
        r.recovered = t;
      }
    });
  }
  simulation.run_until(sim::seconds(5));
  r.rpc_retries = bed.controller().channel().rpc_retries();
  return r;
}

void print_trial(const char* label, const TrialResult& r) {
  std::printf("\n--- %s ---\n", label);
  std::printf("time ms   Gbps\n");
  for (const auto& [t, v] : r.rate.points()) {
    const bool near_fault =
        t >= sim::milliseconds(18) && t <= sim::milliseconds(26);
    const bool near_recovery =
        r.recovered >= 0 && t >= r.recovered - sim::milliseconds(3) &&
        t <= r.recovered + sim::milliseconds(4);
    if (!near_fault && !near_recovery) continue;
    std::printf("  %5.0f  %6.2f%s%s%s\n", sim::to_milliseconds(t), v / 1e9,
                (t - sim::milliseconds(1) <= r.fault_at && r.fault_at < t)
                    ? "   <-- Fault"
                    : "",
                (r.failover >= 0 && t - sim::milliseconds(1) <= r.failover &&
                 r.failover < t)
                    ? "   <-- Failover"
                    : "",
                (t == r.recovered) ? "   <-- Recovered" : "");
  }
  std::printf("fault injected       : %8.3f ms\n",
              sim::to_milliseconds(r.fault_at));
  std::printf("link-down detected   : %8.3f ms  (detect %.0f us)\n",
              sim::to_milliseconds(r.detected),
              sim::to_microseconds(r.detected - r.fault_at));
  std::printf("failover issued      : %8.3f ms  (fault->failover %.2f ms)\n",
              sim::to_milliseconds(r.failover),
              sim::to_milliseconds(r.failover - r.fault_at));
  std::printf("throughput recovered : %8.3f ms  (fault->recovery %.2f ms)\n",
              sim::to_milliseconds(r.recovered),
              sim::to_milliseconds(r.recovered - r.fault_at));
  std::printf("flow: %.2f Gbps goodput, %llu retransmits, complete=%d\n",
              r.stats.throughput_bps() / 1e9,
              static_cast<unsigned long long>(r.stats.retransmits),
              r.stats.complete ? 1 : 0);
  std::printf("control-channel RPC retries: %llu\n",
              static_cast<unsigned long long>(r.rpc_retries));
  std::printf("(detection and failover are sub-millisecond-to-ms; the gap to\n"
              " recovery is TCP's RTO — the cut killed a full in-flight\n"
              " window, so there are no dupACKs to trigger fast retransmit)\n");
}

}  // namespace

int main() {
  bench::header("Fault recovery",
                "link cut under a line-rate flow: detect -> failover");
  print_trial("healthy control channel", run_trial(0.0, 1));
  print_trial("10% control-channel loss", run_trial(0.10, 1));
  print_trial("10% loss, second seed", run_trial(0.10, 2));
  return 0;
}
