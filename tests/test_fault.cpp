// Failure-plane tests: link admin state and in-flight frame loss, the
// control channel's retry/backoff under loss, collector outages, heartbeat
// detection of crashed switches, controller-driven failover onto surviving
// shadow trees, and a chaos run over the fat-tree where every flow must
// still complete.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "controller/control_channel.hpp"
#include "fault/fault_injector.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "te/planck_te.hpp"
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

// ---------------------------------------------------------------------------
// ControlChannel retry/backoff
// ---------------------------------------------------------------------------

TEST(ControlChannel, LosslessRpcCompletesInOneRoundTrip) {
  sim::Simulation sim;
  controller::ControlChannel ch(sim, controller::ControlChannelConfig{});
  sim::Time acked = 0;
  ch.call([] { return true; }, [&](bool ok) {
    EXPECT_TRUE(ok);
    acked = sim.now();
  });
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(acked, 2 * sim::microseconds(150));
  EXPECT_EQ(ch.rpc_retries(), 0u);
  EXPECT_EQ(ch.rpc_successes(), 1u);
}

TEST(ControlChannel, RpcsConvergeUnderTenPercentLoss) {
  sim::Simulation sim;
  controller::ControlChannelConfig cfg;
  cfg.loss_prob = 0.10;
  controller::ControlChannel ch(sim, cfg);
  int ok = 0;
  int failed = 0;
  int executed = 0;
  for (int i = 0; i < 200; ++i) {
    ch.call([&executed] {
      ++executed;
      return true;
    },
            [&](bool result) { result ? ++ok : ++failed; });
  }
  sim.run_until(sim::seconds(5));
  EXPECT_EQ(ok, 200);
  EXPECT_EQ(failed, 0);
  // At-least-once: retries re-execute the request at the receiver.
  EXPECT_GE(executed, 200);
  EXPECT_GT(ch.rpc_retries(), 0u);
  EXPECT_GT(ch.messages_lost(), 0u);
}

TEST(ControlChannel, HeavyLossMostlyConvergesWithinAttemptCeiling) {
  sim::Simulation sim;
  controller::ControlChannelConfig cfg;
  cfg.loss_prob = 0.50;
  controller::ControlChannel ch(sim, cfg);
  int ok = 0;
  int failed = 0;
  for (int i = 0; i < 100; ++i) {
    ch.call([] { return true; },
            [&](bool result) { result ? ++ok : ++failed; });
  }
  sim.run_until(sim::seconds(10));
  EXPECT_EQ(ok + failed, 100);  // every call terminates, none hang
  // Per-attempt success is 0.25; eight attempts make failure rare (~10%).
  EXPECT_GE(ok, 75);
  EXPECT_GT(ch.rpc_retries(), 100u);
}

TEST(ControlChannel, TotalLossFailsAfterExactlyMaxAttempts) {
  sim::Simulation sim;
  controller::ControlChannelConfig cfg;
  cfg.loss_prob = 1.0;
  controller::ControlChannel ch(sim, cfg);
  int executed = 0;
  bool reported = false;
  sim::Time failed_at = 0;
  ch.call([&executed] {
    ++executed;
    return true;
  },
          [&](bool ok) {
            EXPECT_FALSE(ok);
            reported = true;
            failed_at = sim.now();
          });
  sim.run_until(sim::seconds(10));
  ASSERT_TRUE(reported);
  EXPECT_EQ(executed, 0);
  EXPECT_EQ(ch.rpc_failures(), 1u);
  EXPECT_EQ(ch.rpc_retries(),
            static_cast<std::uint64_t>(cfg.rpc_max_attempts - 1));
  // Backoff doubles from 1 ms: 1+2+4+...+128 = 255 ms to give up.
  EXPECT_EQ(failed_at, sim::milliseconds(255));
}

TEST(ControlChannel, DuplicatedAcksResolveOnce) {
  sim::Simulation sim;
  controller::ControlChannelConfig cfg;
  cfg.dup_prob = 1.0;  // every message is duplicated
  controller::ControlChannel ch(sim, cfg);
  int results = 0;
  ch.call([] { return true; }, [&](bool ok) {
    EXPECT_TRUE(ok);
    ++results;
  });
  sim.run_until(sim::seconds(1));
  EXPECT_EQ(results, 1);
  EXPECT_GT(ch.messages_duplicated(), 0u);
}

TEST(ControlChannel, DeadTargetNeverAcksAndCallFails) {
  sim::Simulation sim;
  controller::ControlChannel ch(sim, controller::ControlChannelConfig{});
  bool reported_ok = true;
  ch.call([] { return false; },  // crashed receiver: executes nothing
          [&](bool ok) { reported_ok = ok; });
  sim.run_until(sim::seconds(10));
  EXPECT_FALSE(reported_ok);
  EXPECT_EQ(ch.rpc_failures(), 1u);
}

// ---------------------------------------------------------------------------
// Link and switch failure semantics
// ---------------------------------------------------------------------------

TEST(Fault, LinkDownKillsInFlightFramesAndFlowFailsOver) {
  FatTree f;
  fault::FaultInjector inj(f.sim, f.bed, 1);

  std::vector<std::pair<sim::Time, bool>> transitions;
  f.bed.controller().subscribe_link_status(
      [&](int, int, bool up) { transitions.emplace_back(f.sim.now(), up); });

  tcp::FlowStats stats;
  auto* flow = f.bed.host(0)->start_flow(
      net::host_ip(4), 5001, 50 * 1024 * 1024,
      [&](const tcp::FlowStats& s) { stats = s; });

  // Cut the flow's aggregation uplink once it is running at full rate.
  const net::PathHop hop =
      f.bed.controller().routing().path(0, 4, 0).hops[1];
  const sim::Time fault_at = sim::milliseconds(5);
  inj.schedule_link_outage(fault_at, sim::seconds(10), hop.switch_node,
                           hop.out_port);

  f.sim.run_until(sim::seconds(10));
  ASSERT_TRUE(stats.complete);

  // Frames that were on the wire when the cable died were lost.
  EXPECT_GT(f.bed.link_out(hop.switch_node, hop.out_port)->down_drops(), 0u);
  // The controller heard about it quickly (port-status over the channel)
  // and moved the flow to a surviving shadow tree.
  ASSERT_FALSE(transitions.empty());
  EXPECT_FALSE(transitions.front().second);
  EXPECT_LT(transitions.front().first, fault_at + sim::milliseconds(1));
  EXPECT_GE(f.bed.controller().failovers(), 1u);
  EXPECT_NE(f.bed.controller().tree_of(flow->key()), 0);
  EXPECT_FALSE(
      f.bed.controller().link_up(hop.switch_node, hop.out_port));
}

TEST(Fault, RestoredLinkIsBelievedUpAgain) {
  FatTree f;
  fault::FaultInjector inj(f.sim, f.bed, 1);
  const net::PathHop hop =
      f.bed.controller().routing().path(0, 4, 0).hops[1];
  inj.schedule_link_outage(sim::milliseconds(1), sim::milliseconds(5),
                          hop.switch_node, hop.out_port);
  f.sim.run_until(sim::milliseconds(3));
  EXPECT_FALSE(f.bed.controller().link_up(hop.switch_node, hop.out_port));
  EXPECT_TRUE(inj.link_down(hop.switch_node, hop.out_port));
  f.sim.run_until(sim::milliseconds(10));
  EXPECT_TRUE(f.bed.controller().link_up(hop.switch_node, hop.out_port));
  EXPECT_FALSE(inj.link_down(hop.switch_node, hop.out_port));
  // Down and up transitions both recorded.
  ASSERT_EQ(inj.history().size(), 2u);
  EXPECT_EQ(inj.history()[0].kind, fault::FaultKind::kLinkDown);
  EXPECT_EQ(inj.history()[1].kind, fault::FaultKind::kLinkUp);
}

TEST(Fault, OverlappingOutagesReferenceCount) {
  FatTree f;
  fault::FaultInjector inj(f.sim, f.bed, 1);
  const net::PathHop hop =
      f.bed.controller().routing().path(0, 4, 0).hops[1];
  inj.fail_link(hop.switch_node, hop.out_port);
  inj.fail_link(hop.switch_node, hop.out_port);  // second outage, same cable
  EXPECT_TRUE(inj.link_down(hop.switch_node, hop.out_port));
  inj.restore_link(hop.switch_node, hop.out_port);
  EXPECT_TRUE(inj.link_down(hop.switch_node, hop.out_port));  // still held
  inj.restore_link(hop.switch_node, hop.out_port);
  EXPECT_FALSE(inj.link_down(hop.switch_node, hop.out_port));
  // Only one real down/up pair.
  EXPECT_EQ(inj.history().size(), 2u);

  // The second outage names the same cable from its peer end.
  const net::PortRef peer = f.graph.peer(hop.switch_node, hop.out_port);
  ASSERT_TRUE(peer.valid());
  inj.fail_link(hop.switch_node, hop.out_port);
  inj.fail_link(peer.node, peer.port);
  EXPECT_TRUE(inj.link_down(peer.node, peer.port));
  inj.restore_link(peer.node, peer.port);
  EXPECT_TRUE(inj.link_down(hop.switch_node, hop.out_port));  // still held
  inj.restore_link(hop.switch_node, hop.out_port);
  EXPECT_FALSE(inj.link_down(peer.node, peer.port));
  EXPECT_EQ(inj.history().size(), 4u);  // one more down/up pair
}

TEST(Fault, HeartbeatDetectsCrashedSwitchAndRecovery) {
  TestbedConfig cfg;
  cfg.controller_config.heartbeat_interval = sim::milliseconds(2);
  cfg.controller_config.channel.rpc_timeout = sim::microseconds(500);
  cfg.controller_config.channel.rpc_max_attempts = 4;
  FatTree f(cfg);
  fault::FaultInjector inj(f.sim, f.bed, 1);

  std::vector<std::pair<int, bool>> status;
  f.bed.controller().subscribe_switch_status(
      [&](int node, bool alive) { status.emplace_back(node, alive); });

  const int core_node =
      f.graph.switch_node(f.graph.shape().core_switch_index(0));
  inj.schedule_switch_outage(sim::milliseconds(1), sim::milliseconds(19),
                             core_node);

  // Probe RPCs to the wedged switch exhaust their budget (~4 ms), after
  // which the controller declares it dead.
  f.sim.run_until(sim::milliseconds(15));
  EXPECT_FALSE(f.bed.controller().switch_alive(core_node));
  ASSERT_FALSE(status.empty());
  EXPECT_EQ(status.front(), (std::pair<int, bool>{core_node, false}));

  // After restore the next probe round resurrects it.
  f.sim.run_until(sim::milliseconds(30));
  EXPECT_TRUE(f.bed.controller().switch_alive(core_node));
  EXPECT_EQ(status.back(), (std::pair<int, bool>{core_node, true}));
}

TEST(Fault, CrashedSwitchForwardsNothing) {
  FatTree f;
  fault::FaultInjector inj(f.sim, f.bed, 1);
  const net::TopologyShape& shape = f.graph.shape();
  const int edge_node = f.graph.switch_node(
      shape.edge_switch_index(shape.pod_of_host(0), shape.edge_of_host(0)));

  tcp::FlowStats stats;
  f.bed.host(0)->start_flow(net::host_ip(4), 5001, 4 * 1024 * 1024,
                            [&](const tcp::FlowStats& s) { stats = s; });
  inj.schedule_switch_outage(sim::milliseconds(1), sim::milliseconds(10),
                             edge_node);
  f.sim.run_until(sim::milliseconds(5));
  auto* sw = f.bed.switch_by_node(edge_node);
  EXPECT_FALSE(sw->online());
  EXPECT_GT(sw->fault_drops(), 0u);  // blackholed while wedged
  // TCP rides out the blackout on retransmission timers.
  f.sim.run_until(sim::seconds(10));
  EXPECT_TRUE(stats.complete);
  EXPECT_GT(stats.retransmits, 0u);
}

// ---------------------------------------------------------------------------
// Collector outages
// ---------------------------------------------------------------------------

TEST(Fault, CollectorOutageMarksEstimatesStaleNotFrozen) {
  FatTree f;
  fault::FaultInjector inj(f.sim, f.bed, 1);

  tcp::FlowStats stats;
  f.bed.host(0)->start_flow(net::host_ip(4), 5001, 200 * 1024 * 1024,
                            [&](const tcp::FlowStats& s) { stats = s; });
  f.sim.run_until(sim::milliseconds(10));

  const net::PathHop hop =
      f.bed.controller().routing().path(0, 4, 0).hops.front();
  auto* collector = f.bed.collector_by_node(hop.switch_node);
  ASSERT_NE(collector, nullptr);
  ASSERT_GT(collector->link_utilization_bps(hop.out_port), 1e9);
  ASSERT_FALSE(collector->data_stale());

  inj.crash_collector(hop.switch_node);
  // A dead process serves nothing — not yesterday's numbers.
  EXPECT_FALSE(collector->online());
  EXPECT_TRUE(collector->data_stale());
  EXPECT_EQ(collector->link_utilization_bps(hop.out_port), 0.0);
  EXPECT_TRUE(collector->flows_on_link(hop.out_port).empty());
  f.sim.run_until(sim::milliseconds(20));
  EXPECT_GT(collector->samples_dropped_offline(), 0u);

  inj.restore_collector(hop.switch_node);
  EXPECT_EQ(collector->outages(), 1u);
  f.sim.run_until(sim::milliseconds(40));
  // Fresh samples rebuild the estimates.
  EXPECT_FALSE(collector->data_stale());
  EXPECT_GT(collector->link_utilization_bps(hop.out_port), 1e9);
}

TEST(Fault, QuietMonitorStreamReadsStaleEvenWhenOnline) {
  FatTree f;
  fault::FaultInjector inj(f.sim, f.bed, 1);
  tcp::FlowStats stats;
  f.bed.host(0)->start_flow(net::host_ip(4), 5001, 200 * 1024 * 1024,
                            [&](const tcp::FlowStats& s) { stats = s; });
  f.sim.run_until(sim::milliseconds(10));
  const net::PathHop hop =
      f.bed.controller().routing().path(0, 4, 0).hops.front();
  auto* collector = f.bed.collector_by_node(hop.switch_node);
  ASSERT_FALSE(collector->data_stale());
  // Cut the monitor cable: the collector stays up but goes deaf.
  const int monitor_port = f.graph.num_ports(hop.switch_node);
  ASSERT_NE(f.bed.link_out(hop.switch_node, monitor_port), nullptr);
  f.bed.link_out(hop.switch_node, monitor_port)->set_admin_up(false);
  f.sim.run_until(sim::milliseconds(30));
  EXPECT_TRUE(collector->online());
  EXPECT_TRUE(collector->data_stale());
}

// ---------------------------------------------------------------------------
// Chaos: random fault schedule, every flow must still complete
// ---------------------------------------------------------------------------

struct LinkTransition {
  sim::Time at;
  int node;
  int port;
  bool up;
};

bool switch_offline_at(const std::vector<fault::FaultRecord>& history,
                       int node, sim::Time t) {
  int depth = 0;
  for (const fault::FaultRecord& r : history) {
    if (r.node != node) continue;
    if (r.at > t) break;
    if (r.kind == fault::FaultKind::kSwitchCrash) ++depth;
    if (r.kind == fault::FaultKind::kSwitchRestore) --depth;
  }
  return depth > 0;
}

TEST(Chaos, AllFlowsCompleteUnderRandomFaults) {
  for (const std::uint64_t seed : {7ULL, 21ULL, 1234ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Simulation sim;
    const auto graph = net::make_fat_tree(4,
        net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
    Testbed bed(sim, graph, TestbedConfig{});
    te::PlanckTe te(sim, bed.controller(), te::PlanckTeConfig{});
    fault::FaultInjector inj(sim, bed, seed);

    std::vector<LinkTransition> transitions;
    bed.controller().subscribe_link_status([&](int node, int port, bool up) {
      transitions.push_back(LinkTransition{sim.now(), node, port, up});
    });

    fault::ChaosConfig chaos;
    chaos.num_faults = 6;
    chaos.start = sim::milliseconds(5);
    chaos.spread = sim::milliseconds(40);
    chaos.min_down = sim::milliseconds(2);
    chaos.max_down = sim::milliseconds(15);
    ASSERT_GT(inj.plan_random(chaos), 0);

    // 40 MiB per flow: ~36 ms at line rate, so the fault window (5-45 ms)
    // lands on live traffic.
    constexpr int kFlows = 8;
    std::vector<tcp::FlowStats> stats(kFlows);
    for (int i = 0; i < kFlows; ++i) {
      bed.host(i)->start_flow(net::host_ip((i + 8) % 16), 5001,
                              40 * 1024 * 1024,
                              [&stats, i](const tcp::FlowStats& s) {
                                stats[static_cast<std::size_t>(i)] = s;
                              });
    }

    sim.run_until(sim::seconds(5));  // bounded horizon: a hang fails below

    for (int i = 0; i < kFlows; ++i) {
      EXPECT_TRUE(stats[static_cast<std::size_t>(i)].complete)
          << "flow " << i << " never completed";
    }
    EXPECT_FALSE(inj.history().empty());

    // Bounded detection: every cable cut whose transmitting switch was
    // healthy must surface as a controller link-down event within 1 ms
    // (one channel traversal plus slack).
    for (const fault::FaultRecord& r : inj.history()) {
      if (r.kind != fault::FaultKind::kLinkDown) continue;
      if (switch_offline_at(inj.history(), r.node, r.at)) continue;
      bool detected = false;
      for (const LinkTransition& t : transitions) {
        if (t.node == r.node && t.port == r.port && !t.up &&
            t.at >= r.at && t.at <= r.at + sim::milliseconds(1)) {
          detected = true;
          break;
        }
      }
      EXPECT_TRUE(detected)
          << "link (" << r.node << "," << r.port << ") cut at " << r.at
          << " never detected";
    }
  }
}

}  // namespace
}  // namespace planck
