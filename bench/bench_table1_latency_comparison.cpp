// Table 1 + §5.2 + §5.5: end-to-end measurement latency of Planck — the
// time from a packet being sent to the collector holding a stable rate
// estimate for its flow — on 10 Gbps and 1 Gbps switches, with the default
// (fixed ~buffer) monitor allocation and with the "minbuffer"
// configuration the paper wished firmware exposed. Literature values for
// prior systems are printed alongside for the slowdown column.

#include <cstdio>

#include "bench_util.hpp"
#include "core/rate_estimator.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "stats/samples.hpp"
#include "stats/table.hpp"
#include "workload/testbed.hpp"

using namespace planck;

namespace {

struct Measured {
  double sample_lo_us = 0;  // undersubscribed sample delay range
  double sample_hi_us = 0;
  double buffered_med_us = 0;  // congested sample delay (median)
  double estimate_lo_us = 0;   // additional delay to a stable estimate
  double estimate_hi_us = 0;

  double total_lo_us() const { return sample_lo_us + estimate_lo_us; }
  double total_hi_us(bool congested) const {
    return (congested ? buffered_med_us : sample_hi_us) + estimate_hi_us;
  }
};

Measured run_case(sim::BitsPerSec rate, sim::Bytes monitor_cap) {
  Measured m;

  // Part 1: undersubscribed sample latency (§5.2) — one flow, idle net.
  {
    sim::Simulation simulation;
    const net::TopologyGraph graph =
        net::make_star(6, net::LinkSpec{rate, sim::microseconds(40)});
    workload::TestbedConfig cfg;
    cfg.switch_config.monitor_port_cap = monitor_cap;
    workload::Testbed bed(simulation, graph, cfg);
    stats::Samples lat_us;
    bed.collector_by_node(graph.switch_node(0))
        ->set_sample_hook([&](const core::Sample& s) {
          if (s.packet.payload == 0) return;
          lat_us.add(sim::to_microseconds(s.received_at - s.packet.sent_at));
        });
    bed.host(0)->start_flow(net::host_ip(3), 5001, 4 * 1024 * 1024);
    simulation.run_until(sim::milliseconds(100));
    m.sample_lo_us = lat_us.percentile(1);
    m.sample_hi_us = lat_us.percentile(99);
  }

  // Part 2: congested sample latency — 3 saturated flows, oversubscribed
  // monitor (Figure 8 conditions).
  {
    sim::Simulation simulation;
    const net::TopologyGraph graph =
        net::make_star(6, net::LinkSpec{rate, sim::microseconds(40)});
    workload::TestbedConfig cfg;
    cfg.switch_config.monitor_port_cap = monitor_cap;
    workload::Testbed bed(simulation, graph, cfg);
    stats::Samples lat_us;
    const sim::Time measure_from = sim::milliseconds(30);
    bed.collector_by_node(graph.switch_node(0))
        ->set_sample_hook([&](const core::Sample& s) {
          if (s.packet.payload == 0 || simulation.now() < measure_from) {
            return;
          }
          lat_us.add(sim::to_microseconds(s.received_at - s.packet.sent_at));
        });
    for (int f = 0; f < 3; ++f) {
      bed.host(f)->start_flow(net::host_ip(3 + f), 5001,
                              1'000'000'000'000LL);
    }
    simulation.run_until(measure_from + sim::milliseconds(40));
    m.buffered_med_us = lat_us.median();
  }

  // Part 3: rate-estimation delay (§5.4): time from a steady flow's sample
  // arriving to a stable estimate is bounded by the burst parameters —
  // measure the estimator's inter-estimate spacing on a steady flow.
  {
    sim::Simulation simulation;
    const net::TopologyGraph graph =
        net::make_star(6, net::LinkSpec{rate, sim::microseconds(40)});
    workload::TestbedConfig cfg;
    cfg.switch_config.monitor_port_cap = monitor_cap;
    workload::Testbed bed(simulation, graph, cfg);
    core::BurstRateEstimator est;
    stats::Samples spacing_us;
    sim::Time last = -1;
    bed.collector_by_node(graph.switch_node(0))
        ->set_sample_hook([&](const core::Sample& s) {
          if (s.packet.payload == 0) return;
          if (est.add_sample(s.received_at, s.packet.seq,
                             s.packet.payload)) {
            if (last >= 0) {
              spacing_us.add(sim::to_microseconds(s.received_at - last));
            }
            last = s.received_at;
          }
        });
    bed.host(0)->start_flow(net::host_ip(3), 5001, 32 * 1024 * 1024);
    simulation.run_until(sim::milliseconds(200));
    m.estimate_lo_us = spacing_us.percentile(5);
    m.estimate_hi_us = spacing_us.percentile(95);
  }
  return m;
}

struct PriorSystem {
  const char* name;
  double latency_ms;
};

}  // namespace

int main() {
  bench::header("Table 1", "measurement latency comparison (§5.5)");

  const Measured g10_min =
      run_case(sim::gigabits_per_sec(10), sim::bytes(8 * 1518));
  const Measured g1_min =
      run_case(sim::gigabits_per_sec(1), sim::bytes(8 * 1518));
  const Measured g10 = run_case(sim::gigabits_per_sec(10), sim::mebibytes(4));
  const Measured g1 = run_case(sim::gigabits_per_sec(1), sim::kibibytes(768));

  const double planck_10g_ms = g10.total_hi_us(true) / 1000.0;

  stats::TextTable table({"system", "speed", "slowdown vs 10G Planck"});
  auto planck_row = [&](const char* name, const Measured& m,
                        bool congested) {
    const double hi_ms = m.total_hi_us(congested) / 1000.0;
    table.add_row(
        {name,
         congested
             ? stats::format("< %.1f ms", hi_ms)
             : stats::format("%.0f-%.0f us", m.total_lo_us(),
                             m.total_hi_us(false)),
         stats::format("%.2fx", hi_ms / planck_10g_ms)});
  };
  planck_row("Planck 10 Gbps minbuffer", g10_min, false);
  planck_row("Planck 1 Gbps minbuffer", g1_min, false);
  planck_row("Planck 10 Gbps", g10, true);
  planck_row("Planck 1 Gbps", g1, true);

  // Literature values (Table 1 of the paper); slowdown vs our measured
  // 10 Gbps Planck.
  for (const PriorSystem& sys :
       {PriorSystem{"Helios", 77.4}, PriorSystem{"sFlow/OpenSample", 100.0},
        PriorSystem{"Mahout Polling (Hedera impl.)", 190.0},
        PriorSystem{"DevoFlow Polling (min)", 500.0},
        PriorSystem{"Hedera", 5000.0}}) {
    table.add_row({sys.name, stats::format("%.1f ms", sys.latency_ms),
                   stats::format("%.0fx", sys.latency_ms / planck_10g_ms)});
  }
  table.print();

  // §5.5 / Figure 12 support: component breakdown.
  std::printf("\ncomponent breakdown (measured):\n");
  std::printf("  10G undersubscribed sample delay : %.0f-%.0f us "
              "(paper: 75-150 us)\n",
              g10.sample_lo_us, g10.sample_hi_us);
  std::printf("  1G  undersubscribed sample delay : %.0f-%.0f us "
              "(paper: 80-450 us)\n",
              g1.sample_lo_us, g1.sample_hi_us);
  std::printf("  10G congested (buffered) median  : %.0f us "
              "(paper: ~3500 us)\n",
              g10.buffered_med_us);
  std::printf("  stable-rate-estimate delay       : %.0f-%.0f us "
              "(paper: 200-700 us)\n",
              g10.estimate_lo_us, g10.estimate_hi_us);
  return 0;
}
