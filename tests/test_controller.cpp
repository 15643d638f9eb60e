// Tests for the SDN controller (§3.3, §4.1): route/rule installation,
// mirror configuration, collector port oracles, ARP- and OpenFlow-based
// rerouting end to end, event relaying, and the statistics query API.

#include <gtest/gtest.h>

#include <vector>

#include "controller/controller.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "workload/testbed.hpp"

namespace planck::controller {
namespace {

struct FatTreeBed {
  explicit FatTreeBed(workload::TestbedConfig cfg = {})
      : graph(net::make_fat_tree(4,
            net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)})),
        bed(sim, graph, cfg) {}

  sim::Simulation sim;
  net::TopologyGraph graph;
  workload::Testbed bed;
};

TEST(Controller, InstallsMacRulesOnEverySwitchOnPath) {
  FatTreeBed f;
  const Routing& routing = f.bed.controller().routing();
  for (int t = 0; t < 4; ++t) {
    const net::RoutePath& p = routing.path(0, 15, t);
    for (const net::PathHop& hop : p.hops) {
      auto* sw = f.bed.switch_by_node(hop.switch_node);
      const auto rule = sw->rules().find_mac(net::host_mac(15, t));
      ASSERT_TRUE(rule.has_value()) << "tree " << t;
      EXPECT_EQ(rule->out_port, hop.out_port);
    }
  }
}

TEST(Controller, EgressSwitchRewritesShadowToBase) {
  FatTreeBed f;
  const Routing& routing = f.bed.controller().routing();
  const net::RoutePath& p = routing.path(0, 15, 2);
  auto* egress = f.bed.switch_by_node(p.hops.back().switch_node);
  const auto rule = egress->rules().find_mac(net::host_mac(15, 2));
  ASSERT_TRUE(rule.has_value());
  ASSERT_TRUE(rule->set_dst_mac.has_value());
  EXPECT_EQ(*rule->set_dst_mac, net::host_mac(15, 0));
  // Base-tree rule has no rewrite.
  const net::RoutePath& base = routing.path(0, 15, 0);
  const auto base_rule = f.bed.switch_by_node(base.hops.back().switch_node)
                             ->rules()
                             .find_mac(net::host_mac(15, 0));
  ASSERT_TRUE(base_rule.has_value());
  EXPECT_FALSE(base_rule->set_dst_mac.has_value());
}

TEST(Controller, MirroringEnabledOnEverySwitch) {
  FatTreeBed f;
  for (int s = 0; s < f.graph.num_switches(); ++s) {
    auto* sw = f.bed.switch_by_index(s);
    EXPECT_GE(sw->monitor_port(), 0) << sw->name();
  }
}

TEST(Controller, MirroringDisabledWithoutPlanck) {
  workload::TestbedConfig cfg;
  cfg.enable_planck = false;
  FatTreeBed f(cfg);
  for (int s = 0; s < f.graph.num_switches(); ++s) {
    EXPECT_EQ(f.bed.switch_by_index(s)->monitor_port(), -1);
  }
}

TEST(Controller, HostsGetBaseArpEntries) {
  FatTreeBed f;
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s == d) continue;
      EXPECT_EQ(f.bed.host(s)->lookup_arp(net::host_ip(d)),
                net::host_mac(d, 0));
    }
  }
}

TEST(Controller, CollectorsReceiveRouteViews) {
  FatTreeBed f;
  const Routing& routing = f.bed.controller().routing();
  // Spot check: the collector at the first hop of 0->15 tree 1 can infer
  // both ports.
  const net::RoutePath& p = routing.path(0, 15, 1);
  auto* collector = f.bed.collector_by_node(p.hops[0].switch_node);
  ASSERT_NE(collector, nullptr);
  net::Packet pkt;
  pkt.src_mac = net::host_mac(0);
  pkt.dst_mac = net::host_mac(15, 1);
  pkt.src_ip = net::host_ip(0);
  pkt.dst_ip = net::host_ip(15);
  pkt.payload = 100;
  collector->handle_packet(pkt, 0);
  const auto* rec = collector->flow_table().find(pkt.flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->in_port, p.hops[0].in_port);
  EXPECT_EQ(rec->out_port, p.hops[0].out_port);
}

TEST(Controller, TreeAssignmentTracked) {
  FatTreeBed f;
  net::FlowKey key{net::host_ip(0), net::host_ip(15), 10000, 5001,
                   net::Protocol::kTcp};
  EXPECT_EQ(f.bed.controller().tree_of(key), 0);
  f.bed.controller().reroute_flow(key, 3, RerouteMechanism::kArp);
  EXPECT_EQ(f.bed.controller().tree_of(key), 3);
  EXPECT_EQ(f.bed.controller().arp_reroutes(), 1u);
}

TEST(Controller, ArpRerouteUpdatesSourceHostCache) {
  FatTreeBed f;
  net::FlowKey key{net::host_ip(0), net::host_ip(15), 10000, 5001,
                   net::Protocol::kTcp};
  f.bed.controller().reroute_flow(key, 2, RerouteMechanism::kArp);
  f.sim.run_until(sim::milliseconds(5));
  EXPECT_EQ(f.bed.host(0)->lookup_arp(net::host_ip(15)),
            net::host_mac(15, 2));
  EXPECT_EQ(f.bed.host(0)->arp_updates(), 1u);
  // Other hosts unaffected (the ARP was unicast).
  EXPECT_EQ(f.bed.host(1)->lookup_arp(net::host_ip(15)),
            net::host_mac(15, 0));
}

TEST(Controller, OpenFlowRerouteInstallsFlowRuleAfterDelay) {
  FatTreeBed f;
  net::FlowKey key{net::host_ip(0), net::host_ip(15), 10000, 5001,
                   net::Protocol::kTcp};
  const Routing& routing = f.bed.controller().routing();
  auto* ingress = f.bed.switch_by_node(
      routing.path(0, 15, 0).hops.front().switch_node);
  f.bed.controller().reroute_flow(key, 1, RerouteMechanism::kOpenFlow);
  // Not yet installed: install latency is at least 3 ms.
  f.sim.run_until(sim::microseconds(500));
  EXPECT_EQ(ingress->rules().find_flow(key), nullptr);
  f.sim.run_until(sim::milliseconds(10));
  const auto* rule = ingress->rules().find_flow(key);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(*rule->set_dst_mac, net::host_mac(15, 1));
  EXPECT_EQ(f.bed.controller().openflow_reroutes(), 1u);
}

TEST(Controller, ArpRerouteMovesLiveTraffic) {
  FatTreeBed f;
  tcp::FlowStats result;
  auto* snd = f.bed.host(0)->start_flow(
      net::host_ip(4), 5001, 50 * 1024 * 1024,
      [&](const tcp::FlowStats& s) { result = s; });
  f.sim.schedule_at(sim::milliseconds(10), [&] {
    f.bed.controller().reroute_flow(snd->key(), 2, RerouteMechanism::kArp);
  });
  f.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  // Traffic crossed both the old and the new core.
  const Routing& routing = f.bed.controller().routing();
  const int old_core = routing.path(0, 4, 0).hops[2].switch_node;
  const int new_core = routing.path(0, 4, 2).hops[2].switch_node;
  std::uint64_t old_rx = 0;
  std::uint64_t new_rx = 0;
  for (int p = 0; p < 4; ++p) {
    old_rx += f.bed.switch_by_node(old_core)->counters(p).rx_packets.count();
    new_rx += f.bed.switch_by_node(new_core)->counters(p).rx_packets.count();
  }
  EXPECT_GT(old_rx, 1000u);
  EXPECT_GT(new_rx, 1000u);
}

TEST(Controller, OpenFlowRerouteMovesLiveTraffic) {
  FatTreeBed f;
  tcp::FlowStats result;
  auto* snd = f.bed.host(0)->start_flow(
      net::host_ip(4), 5001, 50 * 1024 * 1024,
      [&](const tcp::FlowStats& s) { result = s; });
  f.sim.schedule_at(sim::milliseconds(10), [&] {
    f.bed.controller().reroute_flow(snd->key(), 2,
                                    RerouteMechanism::kOpenFlow);
  });
  f.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  const Routing& routing = f.bed.controller().routing();
  const int new_core = routing.path(0, 4, 2).hops[2].switch_node;
  std::uint64_t new_rx = 0;
  for (int p = 0; p < 4; ++p) {
    new_rx += f.bed.switch_by_node(new_core)->counters(p).rx_packets.count();
  }
  EXPECT_GT(new_rx, 1000u);
  EXPECT_EQ(result.total_bytes, sim::mebibytes(50));
}

TEST(Controller, RerouteBackToBaseTree) {
  FatTreeBed f;
  tcp::FlowStats result;
  auto* snd = f.bed.host(0)->start_flow(
      net::host_ip(4), 5001, 50 * 1024 * 1024,
      [&](const tcp::FlowStats& s) { result = s; });
  f.sim.schedule_at(sim::milliseconds(5), [&] {
    f.bed.controller().reroute_flow(snd->key(), 3, RerouteMechanism::kArp);
  });
  f.sim.schedule_at(sim::milliseconds(15), [&] {
    f.bed.controller().reroute_flow(snd->key(), 0, RerouteMechanism::kArp);
  });
  f.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(f.bed.host(0)->lookup_arp(net::host_ip(4)), net::host_mac(4, 0));
}

TEST(Controller, CongestionEventsRelayedWithLatency) {
  FatTreeBed f;
  std::vector<sim::Time> delivered;
  f.bed.controller().subscribe_congestion(
      [&](const core::CongestionEvent&) { delivered.push_back(f.sim.now()); });
  // Saturate one link: two senders, one destination.
  f.bed.host(0)->start_flow(net::host_ip(3), 5001, 20 * 1024 * 1024);
  f.bed.host(2)->start_flow(net::host_ip(3), 5001, 20 * 1024 * 1024);
  f.sim.run_until(sim::seconds(5));
  ASSERT_FALSE(delivered.empty());
}

TEST(Controller, QueryLinkUtilizationRoundTrip) {
  FatTreeBed f;
  tcp::FlowStats result;
  f.bed.host(0)->start_flow(net::host_ip(4), 5001, 100 * 1024 * 1024,
                            [&](const tcp::FlowStats& s) { result = s; });
  double util = -1.0;
  sim::Time replied_at = 0;
  const Routing& routing = f.bed.controller().routing();
  const net::PathHop hop = routing.path(0, 4, 0).hops.front();
  sim::Time asked_at = 0;
  f.sim.schedule_at(sim::milliseconds(20), [&] {
    asked_at = f.sim.now();
    f.bed.controller().query_link_utilization(
        hop.switch_node, hop.out_port, [&](double u) {
          util = u;
          replied_at = f.sim.now();
        });
  });
  f.sim.run_until(sim::seconds(2));
  ASSERT_TRUE(result.complete);
  // One flow at ~9.4 Gbps crossed that link at query time.
  EXPECT_GT(util, 8e9);
  // Round trip took two control-channel latencies.
  EXPECT_GE(replied_at - asked_at, 2 * sim::microseconds(150));
}

TEST(Controller, QueryWithoutCollectorFailsExactlyOnce) {
  // A host node has no collector; with Planck off, no switch has one.
  workload::TestbedConfig planck_off;
  planck_off.enable_planck = false;
  FatTreeBed with_planck;
  FatTreeBed without_planck(planck_off);
  const std::pair<FatTreeBed*, int> cases[] = {
      {&with_planck, with_planck.graph.host_node(0)},
      {&without_planck, without_planck.graph.switch_node(0)},
  };
  for (const auto& [f, node] : cases) {
    int replies = 0;
    int failures = 0;
    f->bed.controller().query_link_utilization(
        node, 0, [&](double) { ++replies; }, [&] { ++failures; });
    f->sim.run_until(sim::milliseconds(50));
    EXPECT_EQ(replies, 0) << "node " << node;
    EXPECT_EQ(failures, 1) << "node " << node;
  }
}

}  // namespace
}  // namespace planck::controller
