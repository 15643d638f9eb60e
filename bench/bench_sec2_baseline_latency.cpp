// §2.1 / Table 1 ablation: measure (rather than quote) the sFlow/
// OpenSample baseline in the same harness. A switch samples via the
// control plane at the G8264's ~300 samples/s ceiling; the OpenSample
// estimator then needs a long window before its sequence-number based
// per-flow estimate stabilizes. Planck's oversubscribed mirroring on the
// identical traffic delivers a stable estimate in under a millisecond —
// the paper's core quantitative argument.

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "core/opensample.hpp"
#include "core/rate_estimator.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "stats/table.hpp"
#include "workload/testbed.hpp"

using namespace planck;

int main() {
  bench::header("§2.1 / Table 1",
                "measured sFlow/OpenSample baseline vs Planck");

  sim::Simulation simulation;
  const net::TopologyGraph graph = net::make_star(
      8, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(40)});
  workload::TestbedConfig cfg;
  cfg.switch_config.sflow_one_in_n = 128;  // plenty; CPU cap dominates
  cfg.switch_config.sflow_max_samples_per_sec = 300.0;
  workload::Testbed bed(simulation, graph, cfg);
  auto* sw = bed.switch_by_node(graph.switch_node(0));

  core::OpenSampleEstimator opensample;
  sw->set_sflow_handler([&](const net::Packet& p, int, int, std::uint32_t) {
    opensample.add_sample(simulation.now(), p);
  });

  // Planck on the same switch, watching the same flow.
  core::BurstRateEstimator planck;
  sim::Time planck_stable = -1;
  const double true_rate = 9.49e9;  // each flow owns its path
  bed.collector_by_node(graph.switch_node(0))
      ->set_sample_hook([&](const core::Sample& s) {
        if (s.packet.payload == 0 || s.packet.src_ip != net::host_ip(0)) {
          return;
        }
        if (planck.add_sample(s.received_at, s.packet.seq,
                              s.packet.payload) &&
            planck_stable < 0 &&
            std::abs(planck.rate_bps() - true_rate) < 0.15 * true_rate) {
          planck_stable = s.received_at;
        }
      });

  // Four flows to distinct destinations (so the 300 samples/s spread over
  // four flows, as they would over a real switch's traffic mix).
  const sim::Time t0 = sim::milliseconds(1);
  for (int f = 0; f < 4; ++f) {
    simulation.schedule_at(t0 + f * sim::microseconds(17), [&bed, f] {
      bed.host(f)->start_flow(net::host_ip(4 + f), 5001,
                              1'000'000'000'000LL);
    });
  }

  // Probe the baseline estimate of flow 0 over time.
  const net::FlowKey key{net::host_ip(0), net::host_ip(4), 10000, 5001,
                         net::Protocol::kTcp};
  stats::TextTable table({"time since start", "OpenSample est (Gbps)",
                          "rel. error", "samples"});
  sim::Time opensample_stable = -1;
  for (int ms : {5, 10, 25, 50, 100, 200, 400, 800}) {
    simulation.schedule_at(t0 + sim::milliseconds(ms), [&, ms] {
      const auto* fs = opensample.find(key);
      const double est = fs != nullptr ? fs->rate_bps() : 0.0;
      const double err = std::abs(est - true_rate) / true_rate;
      if (opensample_stable < 0 && fs != nullptr && fs->samples >= 2 &&
          err < 0.15) {
        opensample_stable = simulation.now();
      }
      table.add_row({stats::format("%d ms", ms),
                     stats::format("%.2f", est / 1e9),
                     stats::format("%.0f%%", err * 100),
                     stats::format("%llu",
                                   fs != nullptr
                                       ? static_cast<unsigned long long>(
                                             fs->samples)
                                       : 0ULL)});
    });
  }
  simulation.run_until(t0 + sim::milliseconds(900));

  std::printf(
      "\nfour saturated flows (~%.2f Gbps each on disjoint paths); the\n"
      "switch's ~300 samples/s of control-plane budget is shared "
      "across all of\nthem plus their ACK streams. Per-flow "
      "estimate of flow 0:\n\n",
      true_rate / 1e9);
  table.print();
  std::printf("\ntime to a stable (<15%% error) estimate:\n");
  std::printf("  Planck                : %.2f ms after flow start\n",
              planck_stable >= 0
                  ? sim::to_milliseconds(planck_stable - t0)
                  : -1.0);
  std::printf("  sFlow/OpenSample      : %.1f ms after flow start "
              "(paper quotes 100 ms for this class)\n",
              opensample_stable >= 0
                  ? sim::to_milliseconds(opensample_stable - t0)
                  : -1.0);
  std::printf("  control-plane samples : %llu total (~300/s cap)\n",
              static_cast<unsigned long long>(opensample.samples_seen()));
  return 0;
}
