// Figure 15 + §7.2: the full Planck control loop. Flow 1 runs at line
// rate; Flow 2 starts on a colliding route. Planck detects the congestion
// and reroutes within milliseconds — fast enough that Flow 1 never sees a
// loss. Prints both flows' throughput over time with the Detection and
// Response timestamps marked.
//
// Flags: --json <path> for the planck-metrics-v1 report, and
// --trace <path> to record the run with the telemetry plane and write a
// Chrome-trace JSON (open at chrome://tracing) — the CI smoke's tracing
// scenario.

#include <cstdio>

#include "bench_util.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulation.hpp"
#include "stats/timeseries.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

using namespace planck;

int main(int argc, char** argv) {
  bench::header("Figure 15", "detection and rerouting of colliding flows");
  bench::JsonReport report(argc, argv);
  const std::string trace_path = bench::arg_value(argc, argv, "--trace");

  sim::Simulation simulation;
  obs::Telemetry telemetry;
  if (!trace_path.empty()) {
    // Install before the testbed exists so every component registers its
    // metrics; tracing changes nothing about the run (same digest).
    simulation.set_telemetry(&telemetry);
    telemetry.enable_tracing();
  }
  const net::TopologyGraph graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  workload::Testbed bed(simulation, graph, cfg);
  te::PlanckTe te(simulation, bed.controller(), te::PlanckTeConfig{});

  // Detection: the first congestion notification naming both flows.
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

  tcp::FlowStats s1;
  tcp::FlowStats s2;
  auto* f1 = bed.host(0)->start_flow(net::host_ip(4), 5001,
                                     200 * 1024 * 1024,
                                     [&](const tcp::FlowStats& s) { s1 = s; });
  tcp::TcpSender* f2 = nullptr;
  const sim::Time t2 = sim::milliseconds(30);
  simulation.schedule_at(t2, [&] {
    f2 = bed.host(1)->start_flow(net::host_ip(5), 5001, 200 * 1024 * 1024,
                                 [&](const tcp::FlowStats& s) { s2 = s; });
  });

  // 1 ms throughput series from acked-byte deltas.
  stats::TimeSeries rate1;
  stats::TimeSeries rate2;
  std::int64_t prev1 = 0;
  std::int64_t prev2 = 0;
  for (sim::Time t = sim::milliseconds(1); t <= sim::milliseconds(80);
       t += sim::milliseconds(1)) {
    simulation.schedule_at(t, [&, t] {
      const std::int64_t u1 = f1->snd_una();
      rate1.add(t, static_cast<double>(u1 - prev1) * 8.0 / 1e-3);
      prev1 = u1;
      if (f2 != nullptr) {
        const std::int64_t u2 = f2->snd_una();
        rate2.add(t, static_cast<double>(u2 - prev2) * 8.0 / 1e-3);
        prev2 = u2;
      }
    });
  }
  simulation.run_until(sim::seconds(5));

  std::printf("\ntime ms   flow1 Gbps   flow2 Gbps\n");
  for (const auto& [t, v] : rate1.points()) {
    if (t < sim::milliseconds(20) || t > sim::milliseconds(60)) continue;
    std::printf("  %5.0f      %6.2f       %6.2f%s%s\n",
                sim::to_milliseconds(t), v / 1e9, rate2.at(t) / 1e9,
                (detection >= 0 && t - sim::milliseconds(1) <= detection &&
                 detection < t)
                    ? "   <-- Detection"
                    : "",
                (response >= 0 && t - sim::milliseconds(1) <= response &&
                 response < t)
                    ? "   <-- Response"
                    : "");
  }

  std::printf("\nflow 2 started           : %.3f ms\n",
              sim::to_milliseconds(t2));
  std::printf("congestion detected      : %.3f ms (+%.0f us after start)\n",
              sim::to_milliseconds(detection),
              sim::to_microseconds(detection - t2));
  std::printf("response (new MAC seen)  : %.3f ms (detect->response "
              "%.2f ms; paper: ~2.6 ms)\n",
              sim::to_milliseconds(response),
              sim::to_milliseconds(response - detection));
  std::printf("flow 1: %.2f Gbps, %llu retransmits (paper: zero loss)\n",
              s1.throughput_bps() / 1e9,
              static_cast<unsigned long long>(s1.retransmits));
  std::printf("flow 2: %.2f Gbps, %llu retransmits\n",
              s2.throughput_bps() / 1e9,
              static_cast<unsigned long long>(s2.retransmits));
  std::printf("reroutes issued: %llu\n",
              static_cast<unsigned long long>(te.reroutes()));

  report.add("fig15", simulation.events_executed(),
             /*wall_seconds=*/0.0, sim::to_seconds(simulation.now()));
  report.metrics().gauge("fig15", "detect_ms").set(
      sim::to_milliseconds(detection - t2));
  report.metrics().gauge("fig15", "detect_to_response_ms").set(
      sim::to_milliseconds(response - detection));
  report.metrics().gauge("fig15", "flow1_retransmits").set(
      static_cast<double>(s1.retransmits));
  report.metrics().gauge("fig15", "reroutes").set(
      static_cast<double>(te.reroutes()));

  bool ok = report.write();
  if (!trace_path.empty()) {
    if (telemetry.tracer().write_json(trace_path)) {
      std::printf("trace: %zu events -> %s\n", telemetry.tracer().size(),
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "bench: cannot write %s\n", trace_path.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
