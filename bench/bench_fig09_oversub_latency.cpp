// Figure 9 (§5.3): mean sample latency vs monitor-port oversubscription
// factor on the 10 Gbps switch. CBR sources provide exact offered loads;
// an oversubscription factor of 1.5 means 15 Gbps of traffic is mirrored
// into a 10 Gbps monitor port. The flat curve is the evidence that the
// switch gives the monitor port a fixed buffer allocation.
//
// Also serves as the monitor-buffer ablation: a second sweep with the
// Table-1 "minbuffer" configuration shows microsecond-scale latency.

#include <cstdio>

#include "bench_util.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "stats/samples.hpp"
#include "stats/table.hpp"
#include "tcp/cbr_source.hpp"
#include "workload/testbed.hpp"

using namespace planck;

namespace {

stats::Samples run_case(double factor, sim::Bytes monitor_cap,
                        sim::Duration duration) {
  sim::Simulation simulation;
  constexpr int kSources = 8;
  const net::TopologyGraph graph = net::make_star(
      2 * kSources,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(40)});
  workload::TestbedConfig cfg;
  cfg.switch_config.monitor_port_cap = monitor_cap;
  workload::Testbed bed(simulation, graph, cfg);

  stats::Samples latency_ms;
  const sim::Time measure_from = sim::milliseconds(25);
  bed.collector_by_node(graph.switch_node(0))
      ->set_sample_hook([&](const core::Sample& s) {
        if (s.packet.payload == 0 || simulation.now() < measure_from) return;
        latency_ms.add(
            sim::to_milliseconds(s.received_at - s.packet.sent_at));
      });

  std::vector<std::unique_ptr<tcp::CbrSource>> sources;
  const auto per_source =
      static_cast<std::int64_t>(factor * 10e9 / kSources);
  for (int f = 0; f < kSources; ++f) {
    sources.push_back(std::make_unique<tcp::CbrSource>(
        simulation, *bed.host(f), net::host_ip(kSources + f),
        static_cast<std::uint16_t>(7000 + f), 7001,
        sim::BitsPerSec{per_source}));
    sources.back()->start();
  }
  simulation.run_until(measure_from + duration);
  return latency_ms;
}

}  // namespace

int main() {
  bench::header("Figure 9",
                "sample latency vs oversubscription factor (10 Gbps)");
  const auto duration = static_cast<sim::Duration>(
      static_cast<double>(sim::milliseconds(40)) * bench::scale());

  stats::TextTable table({"factor", "mean latency ms (4MB monitor)",
                          "mean latency ms (minbuffer)"});
  for (double factor : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0}) {
    const auto fixed = run_case(factor, sim::mebibytes(4), duration);
    const auto minbuf = run_case(factor, sim::bytes(8 * 1518), duration);
    table.add_row({stats::format("%.1f", factor),
                   stats::format("%.3f", fixed.mean()),
                   stats::format("%.3f", minbuf.mean())});
  }
  table.print();
  std::printf(
      "\nexpected shape (paper): roughly constant ~3.3-3.5 ms once factor "
      ">= 1\n(fixed monitor allocation); minbuffer column shows what §9.2's "
      "firmware change would buy.\n");
  return 0;
}
