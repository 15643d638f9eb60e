// End-to-end integration tests: the full Planck pipeline on the fat-tree
// testbed — oversubscribed mirroring, collector estimation, congestion
// events, controller relaying, and TE reroutes — plus the paper's headline
// behaviours (Figure 15's lossless reroute, sample latency bounds,
// estimation accuracy under oversubscription).

#include <gtest/gtest.h>

#include <vector>

#include "core/collector.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "te/planck_te.hpp"
#include "workload/experiment.hpp"
#include "workload/testbed.hpp"

namespace planck {
namespace {

using workload::Testbed;
using workload::TestbedConfig;

struct FatTree {
  explicit FatTree(TestbedConfig cfg = {})
      : graph(net::make_fat_tree(4,
            net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)})),
        bed(sim, graph, cfg) {}

  sim::Simulation sim;
  net::TopologyGraph graph;
  Testbed bed;
};

TEST(Integration, CollectorEstimatesMatchActualThroughput) {
  FatTree f;
  tcp::FlowStats result;
  f.bed.host(0)->start_flow(net::host_ip(4), 5001, 100 * 1024 * 1024,
                            [&](const tcp::FlowStats& s) {
                              result = s;
                              f.sim.stop();
                            });
  f.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  // Every switch on the path tracked the flow; check the ingress edge.
  const auto& routing = f.bed.controller().routing();
  const net::PathHop hop = routing.path(0, 4, 0).hops.front();
  auto* collector = f.bed.collector_by_node(hop.switch_node);
  ASSERT_NE(collector, nullptr);
  const auto flows = collector->flows_on_link(hop.out_port);
  ASSERT_FALSE(flows.empty());
  EXPECT_NEAR(flows[0].rate_bps, 9.4e9, 5e8);
}

TEST(Integration, EverySwitchOnPathSeesSamples) {
  FatTree f;
  tcp::FlowStats result;
  f.bed.host(0)->start_flow(net::host_ip(15), 5001, 20 * 1024 * 1024,
                            [&](const tcp::FlowStats& s) { result = s; });
  f.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  const auto& routing = f.bed.controller().routing();
  for (const net::PathHop& hop : routing.path(0, 15, 0).hops) {
    auto* collector = f.bed.collector_by_node(hop.switch_node);
    ASSERT_NE(collector, nullptr);
    EXPECT_GT(collector->samples_received(), 1000u)
        << "switch node " << hop.switch_node;
  }
}

TEST(Integration, PortInferenceAgreesWithOracleEverywhere) {
  FatTree f;
  // Several concurrent flows; every sample's inferred ports must match the
  // oracle metadata the switch stamped on the replica.
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  for (const auto& c : f.bed.collectors()) {
    auto* collector = c.get();
    collector->set_sample_hook([&, collector](const core::Sample& s) {
      if (s.packet.proto == net::Protocol::kArp) return;
      const auto* rec = collector->flow_table().find(s.packet.flow_key());
      if (rec == nullptr) return;
      ++checked;
      if (rec->in_port != s.packet.oracle_in_port ||
          rec->out_port != s.packet.oracle_out_port) {
        ++wrong;
      }
    });
  }
  int done = 0;
  for (int s : {0, 3, 5, 10}) {
    f.bed.host(s)->start_flow(net::host_ip((s + 7) % 16), 5001,
                              10 * 1024 * 1024,
                              [&](const tcp::FlowStats&) { ++done; });
  }
  f.sim.run_until(sim::seconds(5));
  ASSERT_EQ(done, 4);
  EXPECT_GT(checked, 10000u);
  EXPECT_EQ(wrong, 0u);
}

TEST(Integration, UndersubscribedSampleLatencyMicroseconds) {
  // §5.2: on an idle network, sample latency (send -> collector) is
  // 75-150 us at 10 Gbps. Our stand-in host latency is in the propagation
  // budget; expect the same order.
  FatTree f;
  std::vector<double> latencies;
  auto* edge = f.bed.collector_by_node(
      f.bed.controller().routing().path(0, 4, 0).hops.front().switch_node);
  edge->set_sample_hook([&](const core::Sample& s) {
    if (s.packet.payload > 0) {
      latencies.push_back(
          sim::to_microseconds(s.received_at - s.packet.sent_at));
    }
  });
  tcp::FlowStats result;
  f.bed.host(0)->start_flow(net::host_ip(4), 5001, 1024 * 1024,
                            [&](const tcp::FlowStats& s) { result = s; });
  f.sim.run_until(sim::seconds(1));
  ASSERT_TRUE(result.complete);
  ASSERT_FALSE(latencies.empty());
  for (double us : latencies) {
    EXPECT_GT(us, 1.0);
    EXPECT_LT(us, 300.0);
  }
}

TEST(Integration, OversubscriptionBoundsSampleLatencyByMonitorBuffer) {
  // §5.3/Figure 8: under heavy congestion the monitor port's fixed buffer
  // (4 MB at 10 Gbps ~= 3.4 ms) bounds sample latency.
  FatTree f;
  // Three hosts on different edges all sending flat out: each edge switch
  // mirror port sees ~2x line rate at the destination edge.
  int done = 0;
  for (int s : {0, 2}) {
    f.bed.host(s)->start_flow(net::host_ip(5), 5001, 50 * 1024 * 1024,
                              [&](const tcp::FlowStats&) { ++done; });
  }
  std::vector<double> latencies;
  auto* dst_edge = f.bed.collector_by_node(
      f.bed.controller().routing().path(0, 5, 0).hops.back().switch_node);
  dst_edge->set_sample_hook([&](const core::Sample& s) {
    if (s.packet.payload > 0 && f.sim.now() > sim::milliseconds(20)) {
      latencies.push_back(
          sim::to_milliseconds(s.received_at - s.packet.sent_at));
    }
  });
  f.sim.run_until(sim::seconds(10));
  ASSERT_EQ(done, 2);
  ASSERT_GT(latencies.size(), 1000u);
  // Median latency within the ~3.4 ms buffer bound plus slack.
  std::sort(latencies.begin(), latencies.end());
  const double median = latencies[latencies.size() / 2];
  EXPECT_GT(median, 0.5);
  EXPECT_LT(median, 4.5);
}

TEST(Integration, Figure15LosslessReroute) {
  // The paper's headline control-loop demo: two colliding flows; Planck
  // detects and reroutes before the buffer fills, so neither flow sees
  // loss and both reach line rate.
  FatTree f;
  te::PlanckTe te(f.sim, f.bed.controller(), te::PlanckTeConfig{});
  tcp::FlowStats s1;
  tcp::FlowStats s2;
  int done = 0;
  f.bed.host(0)->start_flow(net::host_ip(4), 5001, 100 * 1024 * 1024,
                            [&](const tcp::FlowStats& s) {
                              s1 = s;
                              if (++done == 2) f.sim.stop();
                            });
  f.sim.schedule_at(sim::milliseconds(30), [&] {
    f.bed.host(1)->start_flow(net::host_ip(5), 5001, 100 * 1024 * 1024,
                              [&](const tcp::FlowStats& s) {
                                s2 = s;
                                if (++done == 2) f.sim.stop();
                              });
  });
  f.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(s1.complete && s2.complete);
  EXPECT_GE(te.reroutes(), 1u);
  // Flow 1 (established, at line rate) must see no loss at all.
  EXPECT_EQ(s1.retransmits, 0u);
  EXPECT_EQ(s1.timeouts + s2.timeouts, 0u);
  EXPECT_GT(s1.throughput_bps(), 8.5e9);
  EXPECT_GT(s2.throughput_bps(), 7.5e9);
}

TEST(Integration, DetectionWithinMicroseconds) {
  // §7.2: latency from the first congesting packets to the congestion
  // notification is sub-millisecond.
  FatTree f;
  sim::Time second_flow_started = 0;
  sim::Time detected = 0;
  f.bed.controller().subscribe_congestion(
      [&](const core::CongestionEvent& e) {
        if (detected == 0 && e.flows.size() >= 2) detected = e.detected_at;
      });
  f.bed.host(0)->start_flow(net::host_ip(4), 5001, 100 * 1024 * 1024);
  f.sim.schedule_at(sim::milliseconds(30), [&] {
    second_flow_started = f.sim.now();
    f.bed.host(1)->start_flow(net::host_ip(5), 5001, 100 * 1024 * 1024);
  });
  f.sim.run_until(sim::milliseconds(60));
  ASSERT_GT(detected, 0);
  // Slow start needs a few RTTs to load the link; detection of the *pair*
  // within a couple of ms of the second flow ramping.
  EXPECT_LT(detected - second_flow_started, sim::milliseconds(5));
}

TEST(Integration, MirroringLeavesThroughputIntact) {
  // Figure 4's claim: enabling oversubscribed mirroring does not change
  // the throughput of the mirrored traffic.
  double rates[2];
  for (int planck = 0; planck < 2; ++planck) {
    TestbedConfig cfg;
    cfg.enable_planck = planck == 1;
    FatTree f(cfg);
    tcp::FlowStats s1;
    f.bed.host(0)->start_flow(net::host_ip(4), 5001, 50 * 1024 * 1024,
                              [&](const tcp::FlowStats& s) { s1 = s; });
    f.sim.run_until(sim::seconds(5));
    EXPECT_TRUE(s1.complete);
    rates[planck] = s1.throughput_bps();
  }
  EXPECT_NEAR(rates[0], rates[1], rates[0] * 0.02);
}

TEST(Integration, PlanckTeBeatsStaticOnStride) {
  using namespace workload;
  ExperimentConfig cfg;
  cfg.workload = WorkloadKind::kStride;
  cfg.flow_bytes = sim::bytes(25 * 1024 * 1024);
  cfg.seed = 12;
  cfg.scheme = Scheme::kStatic;
  const auto rs = run_experiment(cfg);
  cfg.scheme = Scheme::kPlanckTe;
  const auto rp = run_experiment(cfg);
  ASSERT_TRUE(rs.all_complete && rp.all_complete);
  EXPECT_GT(rp.avg_flow_throughput.count(),
            1.2 * rs.avg_flow_throughput.count());
}

TEST(Integration, VantagePointRingHoldsRecentSamples) {
  // §6.1: the collector's ring yields the most recent samples for dumping.
  TestbedConfig cfg;
  cfg.collector_config.sample_ring_capacity = 256;
  FatTree f(cfg);
  tcp::FlowStats result;
  f.bed.host(0)->start_flow(net::host_ip(4), 5001, 10 * 1024 * 1024,
                            [&](const tcp::FlowStats& s) {
                              result = s;
                              f.sim.stop();
                            });
  f.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  auto* c = f.bed.collector_by_node(
      f.bed.controller().routing().path(0, 4, 0).hops.front().switch_node);
  EXPECT_EQ(c->raw_samples().size(), 256u);
  // Ring spans only the tail of the run.
  EXPECT_GT(c->raw_samples().front().received_at,
            result.completed_at - sim::milliseconds(2));
}

}  // namespace
}  // namespace planck
