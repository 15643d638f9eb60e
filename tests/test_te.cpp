// Tests for the traffic-engineering applications: TeState bookkeeping and
// bottleneck math (DevoFlow Algorithm 1), PlanckTe's greedy rerouting
// (Algorithm 1 of the paper), and PollTe's demand estimation + global
// first fit.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "controller/controller.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "te/planck_te.hpp"
#include "te/poll_te.hpp"
#include "workload/testbed.hpp"

namespace planck::te {
namespace {

struct Fixture {
  Fixture()
      : graph(net::make_fat_tree(4,
            net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)})),
        routing(graph) {}

  KnownFlow flow(int s, int d, int tree, double rate) {
    KnownFlow f;
    f.key = net::FlowKey{net::host_ip(s), net::host_ip(d),
                         static_cast<std::uint16_t>(10000 + s), 5001,
                         net::Protocol::kTcp};
    f.src_host = s;
    f.dst_host = d;
    f.tree = tree;
    f.rate_bps = sim::BitsPerSecF{rate};
    return f;
  }

  net::TopologyGraph graph;
  controller::Routing routing;
};

// ---------------------------------------------------------------------------
// TeState
// ---------------------------------------------------------------------------

TEST(TeState, LinkLoadsFollowPaths) {
  Fixture f;
  TeState state(f.routing);
  const KnownFlow kf = f.flow(0, 4, 0, 3e9);
  state.upsert(kf.key) = kf;
  const auto loads = state.link_loads();
  const net::RoutePath& p = f.routing.path(0, 4, 0);
  EXPECT_EQ(loads.size(), p.hops.size());
  for (const net::PathHop& hop : p.hops) {
    const auto it = loads.find(net::DirectedLink{hop.switch_node,
                                                 hop.out_port});
    ASSERT_NE(it, loads.end());
    EXPECT_DOUBLE_EQ(it->second.count(), 3e9);
  }
}

TEST(TeState, ExcludeRemovesFlow) {
  Fixture f;
  TeState state(f.routing);
  const KnownFlow kf = f.flow(0, 4, 0, 3e9);
  state.upsert(kf.key) = kf;
  EXPECT_TRUE(state.link_loads(&kf.key).empty());
}

TEST(TeState, OverlappingFlowsSum) {
  Fixture f;
  TeState state(f.routing);
  // Two flows from the same edge pair on the same tree share links.
  const KnownFlow a = f.flow(0, 4, 0, 3e9);
  const KnownFlow b = f.flow(1, 5, 0, 2e9);
  state.upsert(a.key) = a;
  state.upsert(b.key) = b;
  const auto loads = state.link_loads();
  // The shared edge(0,0) uplink carries both.
  const net::PathHop up = f.routing.path(0, 4, 0).hops.front();
  const net::PathHop up_b = f.routing.path(1, 5, 0).hops.front();
  ASSERT_EQ(up.switch_node, up_b.switch_node);
  if (up.out_port == up_b.out_port) {
    EXPECT_DOUBLE_EQ(
        loads.at(net::DirectedLink{up.switch_node, up.out_port}).count(),
        5e9);
  }
}

TEST(TeState, LinkLoadsFoldRatesInKeyOrder) {
  // Floating-point addition is not associative, so a shared link's load
  // is only reproducible if its rates are summed in one fixed order: the
  // left fold in FlowKey order, whatever order the flows were heard in.
  Fixture f;
  TeState state(f.routing);
  const double rates[] = {100'000'000.1, 200'000'000.2, 300'000'000.3};
  std::vector<KnownFlow> flows;  // in key order: ascending source port
  for (int i = 0; i < 3; ++i) {
    KnownFlow kf = f.flow(0, 4, 0, rates[i]);
    kf.key.src_port = static_cast<std::uint16_t>(10000 + i);
    flows.push_back(kf);
  }
  for (auto it = flows.rbegin(); it != flows.rend(); ++it) {
    state.upsert(it->key) = *it;
  }
  double key_order = 0.0;
  for (const KnownFlow& kf : flows) key_order += kf.rate_bps.count();
  double reverse_order = 0.0;
  for (auto it = flows.rbegin(); it != flows.rend(); ++it) {
    reverse_order += it->rate_bps.count();
  }
  ASSERT_NE(key_order, reverse_order);  // the order shows in the last bit

  const auto loads = state.link_loads();
  const net::RoutePath& p = f.routing.path(0, 4, 0);
  ASSERT_EQ(loads.size(), p.hops.size());
  for (const net::PathHop& hop : p.hops) {
    EXPECT_EQ(
        loads.at(net::DirectedLink{hop.switch_node, hop.out_port}).count(),
        key_order);
  }
}

TEST(TeState, BottleneckIsMinResidual) {
  Fixture f;
  TeState state(f.routing);
  const KnownFlow other = f.flow(1, 5, 0, 6e9);
  state.upsert(other.key) = other;
  const auto loads = state.link_loads();
  // Path 0->4 tree 0 shares the edge uplink with 1->5 tree 0 (same base
  // cores for 4 and 5): residual 4e9 there, 10e9 elsewhere.
  const double b0 =
      state.path_bottleneck(f.routing.path(0, 4, 0), loads).count();
  EXPECT_NEAR(b0, 4e9, 1.0);
  // A tree in the other agg group is free.
  const double b2 =
      state.path_bottleneck(f.routing.path(0, 4, 2), loads).count();
  EXPECT_NEAR(b2, 10e9, 1.0);
}

TEST(TeState, RemoveOldFlows) {
  Fixture f;
  TeState state(f.routing);
  KnownFlow a = f.flow(0, 4, 0, 1e9);
  a.last_heard = 100;
  KnownFlow b = f.flow(1, 5, 0, 1e9);
  b.last_heard = 500;
  state.upsert(a.key) = a;
  state.upsert(b.key) = b;
  state.remove_old_flows(300);
  EXPECT_EQ(state.size(), 1u);
  EXPECT_EQ(state.flows().count(b.key), 1u);
}

// ---------------------------------------------------------------------------
// PlanckTe greedy routing (paper Algorithm 1) on synthetic events
// ---------------------------------------------------------------------------

struct TeFixture {
  TeFixture()
      : graph(net::make_fat_tree(4,
            net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)})),
        bed(sim, graph, workload::TestbedConfig{}),
        te(sim, bed.controller(), PlanckTeConfig{}) {}

  core::CongestionEvent event_for(std::vector<core::FlowRate> flows) {
    // Attribute the event to the shared first-hop link of flow 0.
    const auto& routing = bed.controller().routing();
    const net::PathHop hop = routing.path(0, 4, 0).hops.front();
    core::CongestionEvent e;
    e.switch_node = hop.switch_node;
    e.out_port = hop.out_port;
    e.capacity_bps = 10'000'000'000;
    e.detected_at = sim.now();
    e.utilization_bps = 0;
    for (const auto& fr : flows) e.utilization_bps += fr.rate_bps;
    e.flows = std::move(flows);
    return e;
  }

  static core::FlowRate rate(int s, int d, double bps, int tree = 0) {
    core::FlowRate fr;
    fr.key = net::FlowKey{net::host_ip(s), net::host_ip(d),
                          static_cast<std::uint16_t>(10000 + s), 5001,
                          net::Protocol::kTcp};
    fr.src_mac = net::host_mac(s);
    fr.dst_mac = net::host_mac(d, tree);
    fr.rate_bps = bps;
    return fr;
  }

  sim::Simulation sim;
  net::TopologyGraph graph;
  workload::Testbed bed;
  PlanckTe te;
};

TEST(PlanckTe, MovesExactlyOneOfTwoCollidingFlows) {
  TeFixture f;
  f.te.process_congestion(f.event_for(
      {TeFixture::rate(0, 4, 4.7e9), TeFixture::rate(1, 5, 4.7e9)}));
  EXPECT_EQ(f.te.reroutes(), 1u);
  // One of the two flows is now on a non-base tree.
  const int t0 = f.bed.controller().tree_of(TeFixture::rate(0, 4, 0).key);
  const int t1 = f.bed.controller().tree_of(TeFixture::rate(1, 5, 0).key);
  EXPECT_EQ((t0 == 0) + (t1 == 0), 1);
  // And onto the disjoint agg group (relative tree 2 or 3).
  EXPECT_GE(t0 + t1, 2);
}

TEST(PlanckTe, SingleFullRateFlowIsLeftAlone) {
  TeFixture f;
  f.te.process_congestion(f.event_for({TeFixture::rate(0, 4, 9.4e9)}));
  EXPECT_EQ(f.te.reroutes(), 0u);
}

TEST(PlanckTe, IgnoresMiceBelowThreshold) {
  TeFixture f;
  f.te.process_congestion(f.event_for(
      {TeFixture::rate(0, 4, 9.3e9), TeFixture::rate(1, 5, 10e6)}));
  EXPECT_EQ(f.te.reroutes(), 0u);
}

TEST(PlanckTe, CooldownPreventsDoubleMove) {
  TeFixture f;
  const auto flows = std::vector<core::FlowRate>{
      TeFixture::rate(0, 4, 4.7e9), TeFixture::rate(1, 5, 4.7e9)};
  f.te.process_congestion(f.event_for(flows));
  EXPECT_EQ(f.te.reroutes(), 1u);
  // The same (stale) notification arrives again before the reroute took
  // effect: nothing further must move.
  f.te.process_congestion(f.event_for(flows));
  EXPECT_EQ(f.te.reroutes(), 1u);
}

TEST(PlanckTe, ReroutesAgainAfterCooldown) {
  TeFixture f;
  f.te.process_congestion(f.event_for(
      {TeFixture::rate(0, 4, 4.7e9), TeFixture::rate(1, 5, 4.7e9)}));
  EXPECT_EQ(f.te.reroutes(), 1u);
  f.sim.run_until(sim::milliseconds(10));
  // New congestion appears involving the already-moved flow on its new
  // tree plus a third flow; movement is allowed again.
  f.te.process_congestion(f.event_for(
      {TeFixture::rate(0, 4, 4.7e9), TeFixture::rate(1, 5, 4.7e9)}));
  EXPECT_GE(f.te.events_processed(), 2u);
}

TEST(PlanckTe, AccountsKnownFlowsOnAlternatePaths) {
  TeFixture f;
  // First: flows A(0->4) and B(1->5) collide; B moves to the other agg
  // group (tree 2 or 3).
  f.te.process_congestion(f.event_for(
      {TeFixture::rate(1, 5, 4.7e9), TeFixture::rate(0, 4, 4.6e9)}));
  ASSERT_EQ(f.te.reroutes(), 1u);
  f.sim.run_until(sim::milliseconds(10));
  // Now flows C(0->4 with a different port) and A collide again. C should
  // NOT be moved onto B's tree if that would be worse than a free one —
  // at minimum, the state knows B exists.
  EXPECT_GE(f.te.state().size(), 2u);
}

TEST(PlanckTe, CooldownSuppressesBackToBackRerouteAttempts) {
  TeFixture f;
  const auto flows = std::vector<core::FlowRate>{
      TeFixture::rate(0, 4, 4.7e9), TeFixture::rate(1, 5, 4.7e9)};
  f.te.process_congestion(f.event_for(flows));
  EXPECT_EQ(f.te.reroutes(), 1u);
  // A burst of stale notifications inside the cooldown window (reroute
  // still propagating) must not compound the move.
  for (int i = 0; i < 5; ++i) {
    f.sim.run_until(f.sim.now() + sim::microseconds(400));
    f.te.process_congestion(f.event_for(flows));
  }
  EXPECT_EQ(f.te.reroutes(), 1u);
}

TEST(PlanckTe, FlowTimeoutExpiresEntriesMidCongestion) {
  TeFixture f;
  // Two flows known at t=0.
  f.te.process_congestion(f.event_for(
      {TeFixture::rate(0, 4, 4.7e9), TeFixture::rate(1, 5, 4.7e9)}));
  EXPECT_EQ(f.te.state().size(), 2u);
  // Past the 3 ms flow_timeout both entries are stale; the next event
  // (reporting only a new flow) expunges them so their phantom load does
  // not distort bottleneck math.
  f.sim.run_until(sim::milliseconds(10));
  f.te.process_congestion(f.event_for({TeFixture::rate(2, 6, 9.4e9)}));
  EXPECT_EQ(f.te.state().size(), 1u);
  EXPECT_EQ(f.te.state().flows().count(TeFixture::rate(2, 6, 0).key), 1u);
}

TEST(PlanckTe, NotificationForAlreadyRemovedFlowIsHarmless) {
  TeFixture f;
  const auto flows = std::vector<core::FlowRate>{
      TeFixture::rate(0, 4, 4.7e9), TeFixture::rate(1, 5, 4.7e9)};
  f.te.process_congestion(f.event_for(flows));
  f.sim.run_until(sim::milliseconds(10));
  // Entries have timed out. A late (stale) notification naming the same
  // flows arrives: it must be treated as fresh information, not crash on
  // the missing state.
  f.te.process_congestion(f.event_for(flows));
  EXPECT_EQ(f.te.state().size(), 2u);
  EXPECT_GE(f.te.events_processed(), 2u);
}

TEST(PlanckTe, IgnoresFlowsWithUnknownHosts) {
  TeFixture f;
  core::FlowRate bogus;
  bogus.key = net::FlowKey{0xdeadbeef, 0xcafef00d, 1, 2,
                           net::Protocol::kTcp};  // not host IPs
  bogus.rate_bps = 9e9;
  auto e = f.event_for({bogus});
  f.te.process_congestion(e);
  EXPECT_EQ(f.te.state().size(), 0u);
  EXPECT_EQ(f.te.reroutes(), 0u);
}

TEST(PlanckTe, FailsOverFlowsOffDeadLinks) {
  TeFixture f;
  // TE learns of a big flow 0->4 on the base tree.
  f.te.process_congestion(f.event_for({TeFixture::rate(0, 4, 9.4e9)}));
  ASSERT_EQ(f.te.state().size(), 1u);
  ASSERT_EQ(f.te.reroutes(), 0u);  // alone at line rate: left in place
  // Its aggregation uplink dies. The cooldown must NOT protect it — the
  // path is gone — and the replacement tree must avoid the dead link.
  const net::PathHop hop =
      f.bed.controller().routing().path(0, 4, 0).hops[1];
  f.bed.set_link_state(hop.switch_node, hop.out_port, false);
  f.sim.run_until(sim::milliseconds(2));  // port-status propagates
  EXPECT_GE(f.te.failovers() + f.bed.controller().failovers(), 1u);
  const int tree = f.bed.controller().tree_of(TeFixture::rate(0, 4, 0).key);
  EXPECT_NE(tree, 0);
  EXPECT_TRUE(f.bed.controller().path_alive(
      f.bed.controller().routing().path(0, 4, tree)));
}

TEST(PlanckTe, RefusesRerouteOntoDeadTree) {
  TeFixture f;
  // Kill every shadow tree's agg uplink for 0->4, leaving only tree 0.
  const auto& routing = f.bed.controller().routing();
  for (int tree = 1; tree < routing.num_trees(); ++tree) {
    const net::PathHop hop = routing.path(0, 4, tree).hops[1];
    f.bed.set_link_state(hop.switch_node, hop.out_port, false);
  }
  f.sim.run_until(sim::milliseconds(2));
  // Two colliding elephants would normally trigger a move; with every
  // alternate dead, the flows stay on the (congested but live) base tree.
  f.te.process_congestion(f.event_for(
      {TeFixture::rate(0, 4, 4.7e9), TeFixture::rate(1, 5, 4.7e9)}));
  EXPECT_EQ(f.bed.controller().tree_of(TeFixture::rate(0, 4, 0).key), 0);
}

// ---------------------------------------------------------------------------
// PollTe demand estimation (Hedera)
// ---------------------------------------------------------------------------

KnownFlow demand_flow(int s, int d) {
  KnownFlow f;
  f.key = net::FlowKey{net::host_ip(s), net::host_ip(d),
                       static_cast<std::uint16_t>(10000 + s), 5001,
                       net::Protocol::kTcp};
  f.src_host = s;
  f.dst_host = d;
  return f;
}

TEST(DemandEstimation, BijectionGetsFullRate) {
  std::vector<KnownFlow> flows;
  for (int i = 0; i < 4; ++i) flows.push_back(demand_flow(i, (i + 1) % 4));
  const auto d = PollTe::estimate_demands(flows, 4);
  for (double v : d) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(DemandEstimation, TwoSendersOneReceiverSplit) {
  std::vector<KnownFlow> flows{demand_flow(0, 2), demand_flow(1, 2)};
  const auto d = PollTe::estimate_demands(flows, 3);
  EXPECT_NEAR(d[0], 0.5, 1e-9);
  EXPECT_NEAR(d[1], 0.5, 1e-9);
}

TEST(DemandEstimation, OneSenderTwoReceiversSplit) {
  std::vector<KnownFlow> flows{demand_flow(0, 1), demand_flow(0, 2)};
  const auto d = PollTe::estimate_demands(flows, 3);
  EXPECT_NEAR(d[0], 0.5, 1e-9);
  EXPECT_NEAR(d[1], 0.5, 1e-9);
}

TEST(DemandEstimation, MixedSourceSharesReallocated) {
  // Hosts 0 and 1 both send to 3; host 0 also sends to 2. Max-min fair:
  // the receiver-limited flows to 3 converge at 0.5 each; host 0's flow
  // to 2 then gets its residual 0.5.
  std::vector<KnownFlow> flows{demand_flow(0, 3), demand_flow(1, 3),
                               demand_flow(0, 2)};
  const auto d = PollTe::estimate_demands(flows, 4);
  EXPECT_NEAR(d[0], 0.5, 1e-6);
  EXPECT_NEAR(d[1], 0.5, 1e-6);
  EXPECT_NEAR(d[2], 0.5, 1e-6);
}

TEST(DemandEstimation, ManyToOneEqualShares) {
  std::vector<KnownFlow> flows;
  for (int s = 0; s < 5; ++s) flows.push_back(demand_flow(s, 7));
  const auto d = PollTe::estimate_demands(flows, 8);
  for (double v : d) EXPECT_NEAR(v, 0.2, 1e-9);
}

TEST(DemandEstimation, EmptyInput) {
  const auto d = PollTe::estimate_demands({}, 4);
  EXPECT_TRUE(d.empty());
}

// ---------------------------------------------------------------------------
// PollTe end to end
// ---------------------------------------------------------------------------

TEST(PollTe, SeparatesCollidingFlowsAfterPoll) {
  sim::Simulation sim;
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  cfg.enable_planck = false;
  cfg.switch_config.flow_accounting = true;
  workload::Testbed bed(sim, graph, cfg);
  PollTeConfig pcfg;
  pcfg.interval = sim::milliseconds(100);
  pcfg.poll_latency = sim::milliseconds(25);
  PollTe poll(sim, bed.controller(), bed.switch_nodes(), pcfg);
  poll.start();

  tcp::FlowStats s1;
  tcp::FlowStats s2;
  auto* f1 = bed.host(0)->start_flow(net::host_ip(4), 5001,
                                     400 * 1024 * 1024,
                                     [&](const tcp::FlowStats& s) { s1 = s; });
  auto* f2 = bed.host(1)->start_flow(net::host_ip(5), 5001,
                                     400 * 1024 * 1024,
                                     [&](const tcp::FlowStats& s) { s2 = s; });
  sim.run_until(sim::seconds(10));
  ASSERT_TRUE(s1.complete && s2.complete);
  EXPECT_GE(poll.reroutes(), 1u);
  // After the first poll cycle the two flows sit on different trees.
  const int t1 = bed.controller().tree_of(f1->key());
  const int t2 = bed.controller().tree_of(f2->key());
  EXPECT_NE(t1 == t2, true) << "t1=" << t1 << " t2=" << t2;
  // Aggregate finishes faster than a fully-shared link would allow:
  // 400 MiB at a fair 4.7G share each would take ~730 ms; after the
  // ~125 ms poll+placement the flows run at line rate.
  EXPECT_LT(s1.completed_at, sim::milliseconds(700));
  EXPECT_LT(s2.completed_at, sim::milliseconds(700));
  EXPECT_EQ(poll.polls(), static_cast<std::uint64_t>(poll.polls()));
}

TEST(PollTe, RejectsSwitchesWithoutFlowAccounting) {
  sim::Simulation sim;
  const auto graph = net::make_fat_tree(4, net::LinkSpec{});
  workload::TestbedConfig cfg;
  cfg.enable_planck = false;
  workload::Testbed bed(sim, graph, cfg);  // flow_accounting off by default
  EXPECT_THROW(PollTe(sim, bed.controller(), bed.switch_nodes(),
                      PollTeConfig{}),
               std::invalid_argument);
}

TEST(PollTe, NoRerouteWithoutCongestion) {
  sim::Simulation sim;
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  cfg.enable_planck = false;
  cfg.switch_config.flow_accounting = true;
  workload::Testbed bed(sim, graph, cfg);
  PollTeConfig pcfg;
  pcfg.interval = sim::milliseconds(100);
  PollTe poll(sim, bed.controller(), bed.switch_nodes(), pcfg);
  poll.start();
  tcp::FlowStats s1;
  bed.host(0)->start_flow(net::host_ip(4), 5001, 200 * 1024 * 1024,
                          [&](const tcp::FlowStats& s) { s1 = s; });
  sim.run_until(sim::seconds(2));
  ASSERT_TRUE(s1.complete);
  EXPECT_EQ(poll.reroutes(), 0u);
  EXPECT_GE(poll.polls(), 2u);
}

}  // namespace
}  // namespace planck::te
