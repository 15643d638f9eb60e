// Figure 16 (§7.2): CDF of the routing response latency — from the moment
// the congestion notification is sent to the moment a collector sees a
// packet carrying the updated (shadow) MAC — for the ARP-based and
// OpenFlow-based reroute mechanisms. ARP lands ~2.5-3.5 ms; OpenFlow
// ~4-9 ms (TCAM install time plus the same observation delay).

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "controller/routing.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "stats/samples.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

using namespace planck;

namespace {

/// One reroute trial: a healthy established flow (src_a -> dst_a) shares
/// its ingress edge — and therefore that switch's oversubscribed monitor
/// port — with a second flow (src_b -> dst_b). At a fixed time the
/// controller reroutes the measured flow onto an alternate tree via
/// `mechanism`. The paper's metric: time from the congestion notification
/// being sent (here, the reroute trigger) until any collector sees a
/// packet carrying the updated MAC. Returns ms, negative on failure.
double run_trial(controller::RerouteMechanism mechanism, std::uint64_t seed,
                 int src_a, int dst_a, int src_b, int dst_b) {
  sim::Simulation simulation;
  const net::TopologyGraph graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  cfg.controller_config.seed = seed;
  workload::Testbed bed(simulation, graph, cfg);

  sim::Time notified = -1;
  sim::Time response = -1;
  for (const auto& c : bed.collectors()) {
    c->set_sample_hook([&](const core::Sample& s) {
      if (notified >= 0 && response < 0 && s.packet.payload > 0 &&
          net::is_shadow_mac(s.packet.dst_mac)) {
        response = s.received_at;
        simulation.schedule(sim::milliseconds(1),
                            [&simulation] { simulation.stop(); });
      }
    });
  }

  auto* measured = bed.host(src_a)->start_flow(net::host_ip(dst_a), 5001,
                                               1'000'000'000'000LL);
  // The second flow targets a disjoint tree's destination so the data
  // paths need not collide, but both flows mirror into the shared ingress
  // monitor port, oversubscribing it ~2x as in the paper's testbed.
  simulation.schedule_at(sim::milliseconds(10), [&] {
    bed.host(src_b)->start_flow(net::host_ip(dst_b), 5001,
                                1'000'000'000'000LL);
  });

  const int tree = 1 + static_cast<int>(seed % 3);
  const sim::Time trigger =
      sim::milliseconds(40) + static_cast<sim::Duration>(seed % 1009) * 300;
  simulation.schedule_at(trigger, [&, tree] {
    notified = simulation.now();
    bed.controller().reroute_flow(measured->key(), tree, mechanism);
  });
  simulation.run_until(sim::milliseconds(100));
  if (notified < 0 || response < 0 || response < notified) return -1;
  return sim::to_milliseconds(response - notified);
}

}  // namespace

int main() {
  bench::header("Figure 16", "response latency CDF: ARP vs OpenFlow control");
  const int trials = bench::runs(15);

  // Pairs: the measured flow and a background flow from the same source
  // edge (so both oversubscribe the same ingress monitor port) whose data
  // path does NOT collide with the measured flow's (different base core),
  // keeping the measured flow healthy when the reroute fires.
  struct Pair {
    int sa, da, sb, db;
  };
  std::vector<Pair> pairs;
  for (int src_edge = 0; src_edge < 8; ++src_edge) {
    for (int da = 0; da < 16; ++da) {
      if (da / 4 == src_edge / 2) continue;  // destination in another pod
      for (int db = 0; db < 16; ++db) {
        if (db == da || db / 4 == src_edge / 2 || db / 4 == da / 4) continue;
        if (controller::Routing::base_core(db, 4) ==
            controller::Routing::base_core(da, 4)) {
          continue;  // would collide
        }
        pairs.push_back(Pair{src_edge * 2, da, src_edge * 2 + 1, db});
        break;
      }
      if (pairs.size() >= 40) break;
    }
  }
  std::printf("trial src/dst pairs available: %zu\n", pairs.size());

  for (auto mechanism : {controller::RerouteMechanism::kArp,
                         controller::RerouteMechanism::kOpenFlow}) {
    stats::Samples latency_ms;
    int attempted = 0;
    for (int t = 0; t < trials && !pairs.empty(); ++t) {
      const Pair& p = pairs[static_cast<std::size_t>(t) % pairs.size()];
      ++attempted;
      const double ms =
          run_trial(mechanism, static_cast<std::uint64_t>(t * 7919 + 13),
                    p.sa, p.da, p.sb, p.db);
      if (ms >= 0) latency_ms.add(ms);
    }
    bench::print_cdf(mechanism == controller::RerouteMechanism::kArp
                         ? "\nARP-based control (paper: ~2.5-3.5 ms)"
                         : "\nOpenFlow-based control (paper: ~4-9 ms)",
                     latency_ms, 12, "ms");
    std::printf("  trials: %d, measured: %zu, median: %.2f ms\n", attempted,
                latency_ms.size(), latency_ms.median());
  }
  return 0;
}
