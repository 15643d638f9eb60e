// Tests for the telemetry plane (DESIGN.md §9): the metric registry and
// its deterministic planck-metrics-v1 export, the Chrome-trace tracer, the
// PLANCK_TRACE/PLANCK_METRIC macro layer, and — the load-bearing property —
// that observing a run never perturbs it: same-seed runs produce
// byte-identical traces, and determinism_digest() is unchanged whether
// telemetry is installed, tracing, or absent.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

namespace planck {
namespace {

// MetricRegistry ------------------------------------------------------------

TEST(MetricRegistry, ReregistrationReturnsSameInstance) {
  obs::MetricRegistry reg;
  obs::Counter& a = reg.counter("switch.s0", "drops");
  a.add(5);
  obs::Counter& b = reg.counter("switch.s0", "drops");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistry, CallbackGaugeReadsAtExport) {
  obs::MetricRegistry reg;
  std::uint64_t backing = 0;
  reg.gauge("c", "live", [&backing] { return static_cast<double>(backing); });
  backing = 42;
  double seen = -1.0;
  reg.visit([&](const std::string&, const std::string&, const obs::Counter*,
                const obs::Gauge* g, const obs::Histogram*) {
    if (g != nullptr) seen = g->value();
  });
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(MetricRegistry, JsonIsSortedByKeyNotRegistrationOrder) {
  // Register out of order; export must be lexicographic on component/name
  // so two same-seed runs serialize byte-identically.
  obs::MetricRegistry a;
  a.gauge("zeta", "g").set(1.0);
  a.counter("alpha", "c").add(2);
  obs::MetricRegistry b;
  b.counter("alpha", "c").add(2);
  b.gauge("zeta", "g").set(1.0);
  EXPECT_EQ(a.to_json(), b.to_json());
  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"schema\":\"planck-metrics-v1\""), std::string::npos);
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
  EXPECT_NE(json.find("\"kind\":\"counter\",\"value\":2"), std::string::npos);
}

TEST(MetricRegistry, HistogramExportsCountAndQuantiles) {
  obs::MetricRegistry reg;
  obs::Histogram& h = reg.histogram("te", "lat_us", 0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.observe(i + 0.5);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
}

TEST(ObsHistogram, QuantileHandlesTailsAndEmpty) {
  obs::Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.observe(-5.0);                         // underflow
  h.observe(100.0);                        // overflow
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 0.0);   // inside the underflow mass
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 10.0);  // overflow clamps to top edge
}

// Tracer --------------------------------------------------------------------

TEST(Tracer, ArgfFormatsJsonBody) {
  EXPECT_EQ(obs::argf("\"port\":%d,\"bytes\":%d", 3, 1460),
            "\"port\":3,\"bytes\":1460");
}

TEST(Tracer, EmitsChromeTraceShapes) {
  obs::Tracer t;
  t.add_shard(0);
  t.instant(0, 1500, "link", "drop", obs::argf("\"port\":%d", 2));
  t.counter(0, 2000, "sim", "events", 7.0);
  EXPECT_EQ(t.size(), 2u);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Timestamps are microseconds with fixed-point ns precision: 1500 ns ->
  // "1.500".
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"I\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"port\":2}"), std::string::npos);
  // Components become named threads, tids in first-use order.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_LT(json.find("\"name\":\"link\""), json.find("\"name\":\"sim\""));
}

TEST(Tracer, MergesShardsByTimeThenPartition) {
  // Two partitions' shards whose events interleave in time. Export orders
  // them by (ts, partition id), emission order within a shard, and hands
  // out tids in that merged order: partition 1's "b" is first used before
  // partition 0's "a", so it is tid 0.
  obs::Tracer t;
  t.add_shard(1);  // adds shard 0 too
  t.instant(0, 2000, "a", "a1");
  t.instant(0, 3000, "a", "a2");
  t.instant(0, 3000, "a", "a3");
  t.instant(1, 1000, "b", "b1");
  t.instant(1, 3000, "b", "b2");
  t.counter(1, 4000, "a", "depth", 1.0);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.to_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"b\"}},\n"
            "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"a\"}},\n"
            "{\"ph\":\"I\",\"pid\":0,\"tid\":0,\"ts\":1.000,\"s\":\"t\","
            "\"name\":\"b1\"},\n"
            "{\"ph\":\"I\",\"pid\":0,\"tid\":1,\"ts\":2.000,\"s\":\"t\","
            "\"name\":\"a1\"},\n"
            "{\"ph\":\"I\",\"pid\":0,\"tid\":1,\"ts\":3.000,\"s\":\"t\","
            "\"name\":\"a2\"},\n"
            "{\"ph\":\"I\",\"pid\":0,\"tid\":1,\"ts\":3.000,\"s\":\"t\","
            "\"name\":\"a3\"},\n"
            "{\"ph\":\"I\",\"pid\":0,\"tid\":0,\"ts\":3.000,\"s\":\"t\","
            "\"name\":\"b2\"},\n"
            "{\"ph\":\"C\",\"pid\":0,\"tid\":1,\"ts\":4.000,"
            "\"name\":\"depth\",\"args\":{\"value\":1.000000}}\n"
            "]}\n");
}

TEST(Tracer, SameEventsGiveTheSameJson) {
  obs::Tracer a;
  obs::Tracer b;
  for (obs::Tracer* t : {&a, &b}) {
    t->add_shard(0);
    t->instant(0, 10, "x", "e1");
    t->counter(0, 20, "y", "c", 1.5);
  }
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.to_json(), b.to_json());
}

// Macro layer ---------------------------------------------------------------

TEST(ObsMacros, SafeWithoutTelemetryInstalled) {
  sim::Simulation sim;
  ASSERT_EQ(sim.telemetry(), nullptr);
  PLANCK_TRACE(sim, "test", "noop");
  PLANCK_TRACE_ARGS(sim, "test", "noop", obs::argf("\"k\":%d", 1));
  PLANCK_TRACE_COUNTER(sim, "test", "n", 1);
  obs::Counter* absent = nullptr;
  PLANCK_METRIC(absent, add(1));
  SUCCEED();
}

TEST(ObsMacros, TraceRecordsOnlyWhileTracingEnabled) {
  sim::Simulation sim;
  obs::Telemetry tel;
  sim.set_telemetry(&tel);
  PLANCK_TRACE(sim, "test", "before");
  EXPECT_EQ(tel.tracer().size(), 0u);  // telemetry on, tracing off
  tel.enable_tracing();
  PLANCK_TRACE(sim, "test", "during");
  EXPECT_EQ(tel.tracer().size(), 1u);
  tel.enable_tracing(false);
  PLANCK_TRACE(sim, "test", "after");
  EXPECT_EQ(tel.tracer().size(), 1u);
  sim.set_telemetry(nullptr);
}

TEST(ObsMacros, MetricAppliesThroughPointer) {
  obs::MetricRegistry reg;
  obs::Counter* c = &reg.counter("t", "n");
  PLANCK_METRIC(c, add(3));
  EXPECT_EQ(c->value(), 3u);
}

// Observing a run must not change it -----------------------------------------

/// Figure-15-style scenario (two colliding elephants, TE reroutes one) with
/// the telemetry plane installed; mirrors test_determinism's run_fig15 but
/// captures the trace and registry instead of the milestone log.
struct TracedRun {
  std::string trace_json;
  std::string metrics_json;
  std::uint64_t digest = 0;
  std::size_t trace_events = 0;
  std::vector<std::string> components;
};

TracedRun run_fig15_traced(std::uint64_t seed, bool tracing) {
  sim::Simulation sim;
  obs::Telemetry tel;
  sim.set_telemetry(&tel);  // before the testbed: components register here
  if (tracing) tel.enable_tracing();
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  cfg.seed = seed;
  workload::Testbed bed(sim, graph, cfg);
  te::PlanckTe te(sim, bed.controller(), te::PlanckTeConfig{});
  for (int i : {0, 1}) {
    bed.host(i)->start_flow(net::host_ip(4 + i), 5001, 8 * 1024 * 1024);
  }
  sim.run_until(sim::milliseconds(100));

  TracedRun out;
  out.trace_json = tel.tracer().to_json();
  out.metrics_json = tel.metrics().to_json();
  out.digest = sim.determinism_digest();
  out.trace_events = tel.tracer().size();
  tel.metrics().visit([&out](const std::string& component, const std::string&,
                             const obs::Counter*, const obs::Gauge*,
                             const obs::Histogram*) {
    out.components.push_back(component);
  });
  sim.set_telemetry(nullptr);
  return out;
}

/// Same scenario with no Telemetry at all — the digest reference.
std::uint64_t run_fig15_bare(std::uint64_t seed) {
  sim::Simulation sim;
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  cfg.seed = seed;
  workload::Testbed bed(sim, graph, cfg);
  te::PlanckTe te(sim, bed.controller(), te::PlanckTeConfig{});
  for (int i : {0, 1}) {
    bed.host(i)->start_flow(net::host_ip(4 + i), 5001, 8 * 1024 * 1024);
  }
  sim.run_until(sim::milliseconds(100));
  return sim.determinism_digest();
}

TEST(Telemetry, ComponentsRegisterTheCatalogue) {
  const TracedRun r = run_fig15_traced(3, /*tracing=*/false);
  auto any_with_prefix = [&r](const std::string& prefix) {
    for (const std::string& c : r.components) {
      if (c.compare(0, prefix.size(), prefix) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(any_with_prefix("sim"));
  EXPECT_TRUE(any_with_prefix("switch."));
  EXPECT_TRUE(any_with_prefix("collector."));
  EXPECT_TRUE(any_with_prefix("control_channel"));
  EXPECT_TRUE(any_with_prefix("te"));
}

TEST(Telemetry, SameSeedTraceIsByteIdentical) {
  const TracedRun a = run_fig15_traced(3, /*tracing=*/true);
  const TracedRun b = run_fig15_traced(3, /*tracing=*/true);
  EXPECT_GT(a.trace_events, 0u);  // the scenario actually traced
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Telemetry, TwoInstancesExportIndependentByteIdenticalJson) {
  // Two Simulations with separate registries, alive simultaneously and
  // advanced in interleaved 10 ms slices — the shape the partitioned
  // engine will run in. Any hidden static-storage state in the metric
  // plane (the thing planck-lint's mutable-global check bans) would let
  // one instance's registrations or counts bleed into the other's export;
  // instead each must serialize byte-identically to a solo same-seed run.
  const TracedRun solo = run_fig15_traced(3, /*tracing=*/false);

  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  cfg.seed = 3;

  sim::Simulation sim_a;
  sim::Simulation sim_b;
  obs::Telemetry tel_a;
  obs::Telemetry tel_b;
  sim_a.set_telemetry(&tel_a);
  sim_b.set_telemetry(&tel_b);
  workload::Testbed bed_a(sim_a, graph, cfg);
  workload::Testbed bed_b(sim_b, graph, cfg);
  te::PlanckTe te_a(sim_a, bed_a.controller(), te::PlanckTeConfig{});
  te::PlanckTe te_b(sim_b, bed_b.controller(), te::PlanckTeConfig{});
  for (int i : {0, 1}) {
    bed_a.host(i)->start_flow(net::host_ip(4 + i), 5001, 8 * 1024 * 1024);
    bed_b.host(i)->start_flow(net::host_ip(4 + i), 5001, 8 * 1024 * 1024);
  }
  for (int slice = 1; slice <= 10; ++slice) {
    sim_a.run_until(sim::milliseconds(10 * slice));
    sim_b.run_until(sim::milliseconds(10 * slice));
  }

  EXPECT_EQ(sim_a.determinism_digest(), sim_b.determinism_digest());
  const std::string json_a = tel_a.metrics().to_json();
  const std::string json_b = tel_b.metrics().to_json();
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(json_a, solo.metrics_json);
  EXPECT_NE(json_a.find("\"schema\":\"planck-metrics-v1\""),
            std::string::npos);
  sim_a.set_telemetry(nullptr);
  sim_b.set_telemetry(nullptr);
}

TEST(Telemetry, ObservationDoesNotPerturbTheRun) {
  // The whole point of the plane: digest with tracing on == digest with
  // telemetry installed but idle == digest with no telemetry at all.
  const std::uint64_t bare = run_fig15_bare(3);
  const TracedRun idle = run_fig15_traced(3, /*tracing=*/false);
  const TracedRun traced = run_fig15_traced(3, /*tracing=*/true);
  EXPECT_EQ(idle.digest, bare);
  EXPECT_EQ(traced.digest, bare);
}

}  // namespace
}  // namespace planck
