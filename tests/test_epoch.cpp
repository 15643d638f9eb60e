// Epoch'd control plane tests (DESIGN.md §10): rule-table edit-list
// staging and one-step commit, the switch's two-phase install/commit
// protocol, the controller's last-good failsafe (rollback on dead ingress,
// out-of-order reroute convergence, crash resync, stale heartbeat
// verdicts, query failure callbacks, the blackhole repair bound),
// collector→controller backpressure modes, and a chaos-matrix determinism
// check.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "controller/controller.hpp"
#include "core/collector.hpp"
#include "fault/fault_injector.hpp"
#include "net/topology.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulation.hpp"
#include "switchsim/rule_table.hpp"
#include "switchsim/switch.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

namespace planck {
namespace {

using workload::Testbed;
using workload::TestbedConfig;

net::FlowKey make_key(int src, int dst) {
  return net::FlowKey{net::host_ip(src), net::host_ip(dst), 10000, 5001,
                      net::Protocol::kTcp};
}

switchsim::RuleActions rewrite_to(int dst, int tree) {
  switchsim::RuleActions actions;
  actions.set_dst_mac = net::host_mac(dst, tree);
  return actions;
}

// ---------------------------------------------------------------------------
// RuleTable: edit-list staging semantics
// ---------------------------------------------------------------------------

TEST(RuleTableEpoch, StagedProgramInvisibleUntilCommit) {
  switchsim::RuleTable rules;
  rules.set_mac_rule(net::host_mac(1), switchsim::RuleActions{2, {}});
  const net::FlowKey key = make_key(0, 1);

  ASSERT_TRUE(rules.begin_staging(1));
  ASSERT_TRUE(rules.stage_flow_rule(1, key, rewrite_to(1, 2)));
  // The data plane reads the live tables: nothing staged is served.
  EXPECT_EQ(rules.find_flow(key), nullptr);
  EXPECT_EQ(rules.flow_rule_count(), 0u);
  EXPECT_TRUE(rules.staging());
  EXPECT_EQ(rules.staged_epoch(), 1u);

  ASSERT_TRUE(rules.commit_staged(1));
  EXPECT_EQ(rules.committed_epoch(), 1u);
  EXPECT_FALSE(rules.staging());
  ASSERT_NE(rules.find_flow(key), nullptr);
  // The commit left the MAC program alone.
  EXPECT_TRUE(rules.find_mac(net::host_mac(1)).has_value());
}

TEST(RuleTableEpoch, NewestProgramWinsStaging) {
  switchsim::RuleTable rules;
  ASSERT_TRUE(rules.begin_staging(1));
  ASSERT_TRUE(rules.commit_staged(1));

  // A program at or below the committed epoch is stale on arrival.
  EXPECT_FALSE(rules.begin_staging(1));

  const net::FlowKey key = make_key(0, 1);
  ASSERT_TRUE(rules.begin_staging(2));
  ASSERT_TRUE(rules.stage_flow_rule(2, key, rewrite_to(1, 1)));
  // Duplicate delivery of the open epoch is an idempotent no-op: the
  // already-staged rule survives.
  ASSERT_TRUE(rules.begin_staging(2));
  ASSERT_TRUE(rules.commit_staged(2));
  EXPECT_NE(rules.find_flow(key), nullptr);

  // A newer program supersedes an open staging; the loser's writes and
  // commit then bounce.
  ASSERT_TRUE(rules.begin_staging(3));
  ASSERT_TRUE(rules.begin_staging(4));
  EXPECT_EQ(rules.staged_epoch(), 4u);
  EXPECT_FALSE(rules.stage_flow_rule(3, key, rewrite_to(1, 3)));
  EXPECT_FALSE(rules.commit_staged(3));
  EXPECT_FALSE(rules.begin_staging(3));  // cannot re-open under a newer one
  ASSERT_TRUE(rules.commit_staged(4));
  EXPECT_EQ(rules.committed_epoch(), 4u);

  // Duplicate commit of the live epoch acks idempotently.
  EXPECT_TRUE(rules.commit_staged(4));
}

TEST(RuleTableEpoch, CrashDiscardsStagedProgram) {
  switchsim::RuleTable rules;

  // Crash path: whatever is staged dies with the DRAM.
  ASSERT_TRUE(rules.begin_staging(2));
  rules.discard_staging();
  EXPECT_FALSE(rules.staging());
  EXPECT_FALSE(rules.commit_staged(2));
}

TEST(RuleTableEpoch, StagedEraseRemovesRuleOnCommit) {
  switchsim::RuleTable rules;
  const net::FlowKey key = make_key(0, 1);
  rules.set_flow_rule(key, rewrite_to(1, 1));

  ASSERT_TRUE(rules.begin_staging(1));
  ASSERT_TRUE(rules.stage_flow_rule(1, key, std::nullopt));
  EXPECT_NE(rules.find_flow(key), nullptr);  // still served until the commit
  ASSERT_TRUE(rules.commit_staged(1));
  EXPECT_EQ(rules.find_flow(key), nullptr);
}

TEST(RuleTableEpoch, EditsApplyInStagedOrder) {
  switchsim::RuleTable rules;
  const net::FlowKey key = make_key(0, 1);

  // A rule then an erase of the same key: the erase wins.
  ASSERT_TRUE(rules.begin_staging(1));
  ASSERT_TRUE(rules.stage_flow_rule(1, key, rewrite_to(1, 1)));
  ASSERT_TRUE(rules.stage_flow_rule(1, key, std::nullopt));
  ASSERT_TRUE(rules.commit_staged(1));
  EXPECT_EQ(rules.find_flow(key), nullptr);

  // The reverse order leaves the rule.
  ASSERT_TRUE(rules.begin_staging(2));
  ASSERT_TRUE(rules.stage_flow_rule(2, key, std::nullopt));
  ASSERT_TRUE(rules.stage_flow_rule(2, key, rewrite_to(1, 2)));
  ASSERT_TRUE(rules.commit_staged(2));
  const auto* rule = rules.find_flow(key);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->set_dst_mac, net::host_mac(1, 2));
}

TEST(RuleTableEpoch, DirectMacWriteSurvivesCommit) {
  switchsim::RuleTable rules;
  const net::FlowKey key = make_key(0, 1);

  // The MAC program sits outside every route program, like flash config:
  // a direct write made while a program is staged stays served after it
  // commits.
  ASSERT_TRUE(rules.begin_staging(1));
  ASSERT_TRUE(rules.stage_flow_rule(1, key, rewrite_to(1, 1)));
  rules.set_mac_rule(net::host_mac(1), switchsim::RuleActions{2, {}});
  ASSERT_TRUE(rules.commit_staged(1));
  const auto mac = rules.find_mac(net::host_mac(1));
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->out_port, 2);
  EXPECT_NE(rules.find_flow(key), nullptr);
}

// ---------------------------------------------------------------------------
// Switch: two-phase install/commit
// ---------------------------------------------------------------------------

TEST(SwitchEpoch, CommitDeferredPastPendingInstalls) {
  sim::Simulation sim;
  switchsim::Switch sw(sim, "s0", 4, switchsim::SwitchConfig{});
  const net::FlowKey key = make_key(0, 1);

  ASSERT_TRUE(
      sw.stage_flow_rule(2, key, rewrite_to(1, 2), sim::milliseconds(5)));
  // The commit RPC is accepted immediately, but the program goes live only
  // after the TCAM write: a half-installed program is never served.
  ASSERT_TRUE(sw.commit_epoch(2));
  sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(sw.committed_epoch(), 0u);
  EXPECT_EQ(sw.rules().find_flow(key), nullptr);

  sim.run_until(sim::milliseconds(6));
  EXPECT_EQ(sw.committed_epoch(), 2u);
  EXPECT_NE(sw.rules().find_flow(key), nullptr);
  EXPECT_EQ(sw.epochs_committed(), 1u);

  // Duplicate commit of the live epoch still acks.
  EXPECT_TRUE(sw.commit_epoch(2));
  // Commits for unknown programs do not.
  EXPECT_FALSE(sw.commit_epoch(7));
}

TEST(SwitchEpoch, CrashDiscardsStagingAndSoftState) {
  sim::Simulation sim;
  switchsim::Switch sw(sim, "s0", 4, switchsim::SwitchConfig{});
  const net::FlowKey key = make_key(0, 1);

  // A committed program with a flow rule, then a newer one mid-install.
  ASSERT_TRUE(
      sw.stage_flow_rule(1, key, rewrite_to(1, 1), sim::microseconds(1)));
  ASSERT_TRUE(sw.commit_epoch(1));
  sim.run_until(sim::microseconds(10));
  ASSERT_EQ(sw.committed_epoch(), 1u);
  ASSERT_TRUE(
      sw.stage_flow_rule(2, key, rewrite_to(1, 2), sim::milliseconds(5)));

  sw.set_online(false);
  sw.set_online(true);
  // Staging lived in DRAM; flow rules are controller soft state. Only the
  // flash-backed program version (and MAC tables) survive the reboot.
  EXPECT_FALSE(sw.rules().staging());
  EXPECT_EQ(sw.rules().find_flow(key), nullptr);
  EXPECT_EQ(sw.committed_epoch(), 1u);

  // The in-flight TCAM write for the discarded program lands on nothing.
  sim.run_until(sim::milliseconds(10));
  EXPECT_EQ(sw.rules().find_flow(key), nullptr);
  EXPECT_EQ(sw.committed_epoch(), 1u);
  // And the dead program can no longer be committed.
  EXPECT_FALSE(sw.commit_epoch(2));
}

// ---------------------------------------------------------------------------
// Controller: failsafe, resync, heartbeat sequencing, query failures
// ---------------------------------------------------------------------------

struct FatTree {
  explicit FatTree(TestbedConfig cfg = {})
      : graph(net::make_fat_tree(4,
            net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)})),
        bed(sim, graph, cfg) {}

  int edge_node_of_host(int host) const {
    const net::TopologyShape& shape = graph.shape();
    return graph.switch_node(shape.edge_switch_index(
        shape.pod_of_host(host), shape.edge_of_host(host)));
  }

  sim::Simulation sim;
  net::TopologyGraph graph;
  Testbed bed;
};

TEST(EpochControl, InstallRoutesStampsBaseEpoch) {
  FatTree f;
  EXPECT_GE(f.bed.controller().epochs().last_epoch(), 1u);
  for (int i = 0; i < f.bed.num_switches(); ++i) {
    EXPECT_EQ(f.bed.switch_by_index(i)->committed_epoch(), 1u)
        << "switch " << i << " not on the base route program";
    EXPECT_FALSE(f.bed.switch_by_index(i)->rules().staging());
  }
}

TEST(EpochControl, FailedRerouteRollsBackToLastGood) {
  TestbedConfig cfg;
  cfg.controller_config.channel.rpc_timeout = sim::microseconds(500);
  cfg.controller_config.channel.rpc_max_attempts = 4;
  FatTree f(cfg);
  fault::FaultInjector inj(f.sim, f.bed, 1);
  const net::FlowKey key = make_key(0, 15);
  const int ingress = f.edge_node_of_host(0);

  inj.crash_switch(ingress);
  const std::uint64_t epoch =
      f.bed.controller().reroute_flow(key, 3,
                                      controller::RerouteMechanism::kOpenFlow);
  EXPECT_GT(epoch, 1u);
  // Optimistic assignment, visible immediately (what TE reads back)...
  EXPECT_EQ(f.bed.controller().tree_of(key), 3);

  // ...reconciled once the stage RPC exhausts its budget against the dead
  // ingress: nothing was applied, so the assignment reverts to last-good.
  f.sim.run_until(sim::milliseconds(50));
  EXPECT_EQ(f.bed.controller().tree_of(key), 0);
  EXPECT_GE(f.bed.controller().failed_reroutes(), 1u);
  EXPECT_GE(f.bed.controller().epochs().fallbacks(), 1u);
  // The dead switch never saw the program.
  EXPECT_EQ(f.bed.switch_by_node(ingress)->committed_epoch(), 1u);
}

TEST(EpochControl, OutOfOrderReroutesConvergeToNewestEpoch) {
  FatTree f;
  const net::FlowKey key = make_key(0, 15);
  const int ingress = f.edge_node_of_host(0);
  controller::Controller& ctrl = f.bed.controller();

  // A slow OpenFlow program (TCAM install + deferred commit) immediately
  // followed by a fast ARP program for the same flow: the ARP epoch is
  // newer and commits first, so the flow must converge on its tree even
  // though the OpenFlow rule — which would outrank it in the data plane —
  // is acked later.
  const std::uint64_t of_epoch =
      ctrl.reroute_flow(key, 1, controller::RerouteMechanism::kOpenFlow);
  const std::uint64_t arp_epoch =
      ctrl.reroute_flow(key, 2, controller::RerouteMechanism::kArp);
  ASSERT_GT(arp_epoch, of_epoch);

  f.sim.run_until(sim::seconds(1));
  EXPECT_EQ(ctrl.tree_of(key), 2);
  EXPECT_GE(ctrl.epochs().stale_commits(), 1u);
  // The stale rule was reconciled away (or superseded before its commit):
  // the ingress data plane carries no 5-tuple rule for the flow, and its
  // live program is the reconciliation epoch.
  EXPECT_EQ(f.bed.switch_by_node(ingress)->rules().find_flow(key), nullptr);
  EXPECT_EQ(f.bed.switch_by_node(ingress)->committed_epoch(), arp_epoch + 1);
  EXPECT_FALSE(ctrl.epochs().in_flight(key));
}

TEST(EpochControl, RecoveredSwitchResyncsToCurrentEpoch) {
  TestbedConfig cfg;
  cfg.controller_config.heartbeat_interval = sim::milliseconds(2);
  cfg.controller_config.channel.rpc_timeout = sim::microseconds(500);
  cfg.controller_config.channel.rpc_max_attempts = 4;
  FatTree f(cfg);
  fault::FaultInjector inj(f.sim, f.bed, 1);
  const net::FlowKey key = make_key(0, 15);
  const int ingress = f.edge_node_of_host(0);
  controller::Controller& ctrl = f.bed.controller();

  ctrl.reroute_flow(key, 2, controller::RerouteMechanism::kOpenFlow);
  f.sim.run_until(sim::milliseconds(20));
  ASSERT_NE(f.bed.switch_by_node(ingress)->rules().find_flow(key), nullptr);
  const std::uint64_t pre_crash =
      f.bed.switch_by_node(ingress)->committed_epoch();

  // The crash wipes the rule (controller soft state)...
  inj.crash_switch(ingress);
  EXPECT_EQ(f.bed.switch_by_node(ingress)->rules().find_flow(key), nullptr);
  f.sim.run_until(sim::milliseconds(40));
  EXPECT_FALSE(ctrl.switch_alive(ingress));

  // ...and recovery re-syncs the switch to the current epoch: the heartbeat
  // resurrects it and the controller reinstalls what it believes the
  // switch carries, under a fresh program.
  inj.restore_switch(ingress);
  f.sim.run_until(sim::milliseconds(80));
  EXPECT_TRUE(ctrl.switch_alive(ingress));
  EXPECT_GE(ctrl.resyncs(), 1u);
  const auto* rule = f.bed.switch_by_node(ingress)->rules().find_flow(key);
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->set_dst_mac, net::host_mac(15, 2));
  EXPECT_EQ(ctrl.tree_of(key), 2);
  EXPECT_GT(f.bed.switch_by_node(ingress)->committed_epoch(), pre_crash);
}

TEST(EpochControl, StaleProbeVerdictsNeverFlapARecoveredSwitch) {
  TestbedConfig cfg;
  cfg.controller_config.heartbeat_interval = sim::milliseconds(2);
  cfg.controller_config.channel.rpc_timeout = sim::microseconds(500);
  cfg.controller_config.channel.rpc_max_attempts = 4;  // ~7.5 ms fail budget
  FatTree f(cfg);
  fault::FaultInjector inj(f.sim, f.bed, 1);
  controller::Controller& ctrl = f.bed.controller();

  std::vector<std::pair<int, bool>> status;
  ctrl.subscribe_switch_status(
      [&](int node, bool alive) { status.emplace_back(node, alive); });

  // Outage shorter than a probe's failure budget: rounds probing the dead
  // window complete long after later rounds already proved the switch
  // alive again. Without round sequencing those slow "dead" verdicts land
  // last and flap a healthy switch.
  const int core_node =
      f.graph.switch_node(f.graph.shape().core_switch_index(0));
  inj.schedule_switch_outage(sim::microseconds(2500), sim::microseconds(7900),
                             core_node);

  f.sim.run_until(sim::milliseconds(50));
  EXPECT_TRUE(ctrl.switch_alive(core_node));
  EXPECT_GE(ctrl.stale_probe_results(), 1u);
  for (const auto& [node, alive] : status) {
    EXPECT_TRUE(alive) << "switch " << node << " flapped dead on a stale "
                       << "probe verdict";
  }
}

TEST(EpochControl, QueryFailureCallbackFiresOnLossExactlyOnce) {
  TestbedConfig cfg;
  cfg.controller_config.channel.loss_prob = 1.0;  // the channel eats both legs
  cfg.controller_config.heartbeat_interval = 0;   // isolate the query path
  FatTree f(cfg);
  const net::PathHop hop = f.bed.controller().routing().path(0, 4, 0).hops[0];

  int replies = 0;
  int failures = 0;
  f.bed.controller().query_link_utilization(
      hop.switch_node, hop.out_port, [&](double) { ++replies; },
      [&] { ++failures; });
  f.sim.run_until(sim::seconds(1));
  EXPECT_EQ(replies, 0);
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(f.bed.controller().query_timeouts(), 1u);
}

TEST(EpochControl, QuerySuccessSuppressesFailureCallback) {
  FatTree f;
  const net::PathHop hop = f.bed.controller().routing().path(0, 4, 0).hops[0];

  int replies = 0;
  int failures = 0;
  f.bed.controller().query_link_utilization(
      hop.switch_node, hop.out_port, [&](double) { ++replies; },
      [&] { ++failures; });
  f.sim.run_until(sim::seconds(1));
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(f.bed.controller().query_timeouts(), 0u);
}

TEST(EpochControl, QueryReplyFiresOnceUnderDuplication) {
  TestbedConfig cfg;
  cfg.controller_config.channel.dup_prob = 1.0;  // every leg arrives twice
  cfg.controller_config.heartbeat_interval = 0;  // isolate the query path
  FatTree f(cfg);
  const net::PathHop hop = f.bed.controller().routing().path(0, 4, 0).hops[0];

  int replies = 0;
  f.bed.controller().query_link_utilization(hop.switch_node, hop.out_port,
                                            [&](double) { ++replies; });
  f.sim.run_until(sim::seconds(1));
  EXPECT_GE(f.bed.controller().channel().messages_duplicated(), 2u);
  EXPECT_EQ(replies, 1);
}

TEST(EpochControl, QueryOfflineCollectorFailsFast) {
  FatTree f;
  fault::FaultInjector inj(f.sim, f.bed, 1);
  const net::PathHop hop = f.bed.controller().routing().path(0, 4, 0).hops[0];
  inj.crash_collector(hop.switch_node);

  int replies = 0;
  int failures = 0;
  f.bed.controller().query_link_utilization(
      hop.switch_node, hop.out_port, [&](double) { ++replies; },
      [&] { ++failures; });
  f.sim.run_until(sim::seconds(1));
  EXPECT_EQ(replies, 0);
  EXPECT_EQ(failures, 1);
}

TEST(EpochControl, BlackholedFlowRepairedWithinBound) {
  FatTree f;
  fault::FaultInjector inj(f.sim, f.bed, 1);
  controller::Controller& ctrl = f.bed.controller();

  tcp::FlowStats stats;
  f.bed.host(0)->start_flow(net::host_ip(4), 5001, 20 * 1024 * 1024,
                            [&](const tcp::FlowStats& s) { stats = s; });
  const net::PathHop hop = ctrl.routing().path(0, 4, 0).hops[1];
  inj.schedule_link_outage(sim::milliseconds(5), sim::seconds(10),
                           hop.switch_node, hop.out_port);

  f.sim.run_until(sim::seconds(5));
  EXPECT_TRUE(stats.complete);
  EXPECT_GE(ctrl.failovers(), 1u);
  // The repair beat the contract bound (the heartbeat contract-asserts
  // this too, when contracts are compiled in) and nothing stayed dark.
  EXPECT_LE(ctrl.max_blackhole_observed(), controller::kMaxBlackholeWindow);
  EXPECT_EQ(ctrl.blackholed_flows(), 0u);
}

// ---------------------------------------------------------------------------
// Collector backpressure modes
// ---------------------------------------------------------------------------

net::Packet make_sample(int src, int dst, std::uint64_t seq) {
  net::Packet p;
  p.src_mac = net::host_mac(src);
  p.dst_mac = net::host_mac(dst);
  p.src_ip = net::host_ip(src);
  p.dst_ip = net::host_ip(dst);
  p.src_port = 10000;
  p.dst_port = 5001;
  p.proto = net::Protocol::kTcp;
  p.seq = seq;
  p.payload = 1460;
  return p;
}

struct CollectorBed {
  explicit CollectorBed(core::CollectorConfig cfg)
      : collector(sim, "c0", 99, cfg) {
    net::SwitchRouteView view;
    view.out_port_by_dst[net::host_mac(1)] = 1;
    view.in_port_by_pair[net::MacPair{net::host_mac(0), net::host_mac(1)}] =
        0;
    collector.update_route_view(view);
    collector.set_link_capacity(1, 10'000'000'000);
    collector.subscribe_congestion(
        [this](const core::CongestionEvent&) { ++delivered; });
  }

  /// Feeds a congesting (95% of capacity) sample stream for flow 0->1.
  void feed(sim::Duration duration) {
    const double interval = 1460 * 8.0 / 9.5e9 * 1e9;
    const sim::Time start = sim.now();
    for (double t = 0; t < static_cast<double>(duration); t += interval) {
      sim.schedule_at(start + static_cast<sim::Time>(t), [this] {
        collector.handle_packet(make_sample(0, 1, seq_), 0);
        seq_ += 1460;
      });
    }
    sim.run_until(start + duration);
  }

  sim::Simulation sim;
  core::Collector collector;
  int delivered = 0;
  std::uint64_t seq_ = 0;
};

TEST(Backpressure, ZeroCapacityIsLegacySynchronousDispatch) {
  core::CollectorConfig cfg;
  cfg.event_debounce = sim::microseconds(200);
  CollectorBed b(cfg);
  b.feed(sim::milliseconds(3));
  EXPECT_GT(b.delivered, 0);
  EXPECT_EQ(b.collector.backpressure_mode(), core::BackpressureMode::kNormal);
  EXPECT_EQ(b.collector.mode_changes(), 0u);
  EXPECT_EQ(b.collector.events_queued(), 0u);
  EXPECT_EQ(b.collector.events_dispatched(), 0u);  // never queued
}

TEST(Backpressure, QueuedEventsDrainAtIngestRate) {
  core::CollectorConfig cfg;
  cfg.event_debounce = sim::microseconds(500);
  cfg.backpressure.queue_capacity = 64;
  cfg.backpressure.drain_interval = sim::microseconds(100);
  CollectorBed b(cfg);
  b.feed(sim::milliseconds(3));
  b.sim.run_until(b.sim.now() + sim::milliseconds(20));
  EXPECT_GT(b.delivered, 0);
  EXPECT_EQ(b.delivered,
            static_cast<int>(b.collector.events_dispatched()));
  EXPECT_EQ(b.collector.events_queued(), 0u);  // fully drained
  EXPECT_EQ(b.collector.events_shed(), 0u);
}

TEST(Backpressure, ShedModeDropsEventsUntilQueueDrains) {
  core::CollectorConfig cfg;
  cfg.event_debounce = sim::microseconds(50);
  cfg.backpressure.queue_capacity = 8;
  cfg.backpressure.shed_watermark = 4;
  cfg.backpressure.drain_interval = sim::milliseconds(2);  // slow controller
  CollectorBed b(cfg);
  b.feed(sim::milliseconds(5));
  // Detection outpaced the drain: the watermark engaged shed mode.
  EXPECT_GT(b.collector.events_shed(), 0u);
  EXPECT_GE(b.collector.mode_changes(), 1u);
  // Once the storm passes the queue drains and the mode steps back down
  // (hysteresis: below half the watermark).
  b.sim.run_until(b.sim.now() + sim::milliseconds(50));
  EXPECT_EQ(b.collector.backpressure_mode(), core::BackpressureMode::kNormal);
  EXPECT_EQ(b.collector.events_queued(), 0u);
  EXPECT_GE(b.collector.mode_changes(), 2u);
  EXPECT_GT(b.delivered, 0);  // degraded, not dark
}

TEST(Backpressure, SampleDownDecimatesTheSampleStream) {
  core::CollectorConfig cfg;
  cfg.event_debounce = sim::microseconds(50);
  cfg.backpressure.queue_capacity = 64;
  cfg.backpressure.sample_down_watermark = 2;
  cfg.backpressure.drain_interval = sim::milliseconds(2);
  CollectorBed b(cfg);
  b.feed(sim::milliseconds(5));
  EXPECT_GT(b.collector.samples_sampled_down(), 0u);
  // Decimation skips estimator work but the stream still lands: received
  // counts every arrival.
  EXPECT_GT(b.collector.samples_received(),
            b.collector.samples_sampled_down());
}

TEST(Backpressure, SweepOnlyDegradationStillReportsCongestion) {
  core::CollectorConfig cfg;
  cfg.event_debounce = sim::microseconds(50);
  cfg.sweep_interval = sim::milliseconds(1);
  cfg.backpressure.queue_capacity = 64;
  cfg.backpressure.sweep_watermark = 2;
  cfg.backpressure.drain_interval = sim::milliseconds(2);
  CollectorBed b(cfg);
  b.feed(sim::milliseconds(6));
  // The per-sample fast path stood down...
  EXPECT_GT(b.collector.events_deferred_to_sweep(), 0u);
  // ...but the sweep kept firing (at most one event per link per period),
  // so the controller still hears about the hot link.
  b.sim.run_until(b.sim.now() + sim::milliseconds(50));
  EXPECT_GT(b.delivered, 0);
}

TEST(Backpressure, CrashShedsTheQueue) {
  core::CollectorConfig cfg;
  cfg.event_debounce = sim::microseconds(50);
  cfg.backpressure.queue_capacity = 64;
  cfg.backpressure.drain_interval = sim::milliseconds(5);
  CollectorBed b(cfg);
  b.feed(sim::milliseconds(3));
  ASSERT_GT(b.collector.events_queued(), 0u);
  const std::uint64_t shed_before = b.collector.events_shed();
  b.collector.set_online(false);
  EXPECT_EQ(b.collector.events_queued(), 0u);
  EXPECT_GT(b.collector.events_shed(), shed_before);
  EXPECT_EQ(b.collector.backpressure_mode(), core::BackpressureMode::kNormal);
}

// ---------------------------------------------------------------------------
// Chaos matrix: epoch invariants + determinism under faults
// ---------------------------------------------------------------------------

struct ChaosResult {
  std::uint64_t digest = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t commits = 0;
  sim::Duration max_blackhole = 0;
  int completed = 0;
};

ChaosResult run_epoch_chaos(std::uint64_t seed, bool with_telemetry) {
  sim::Simulation sim;
  obs::Telemetry telemetry;
  if (with_telemetry) sim.set_telemetry(&telemetry);
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.controller_config.channel.loss_prob = 0.05;
  cfg.controller_config.channel.seed = seed * 7919;
  cfg.collector_config.backpressure.queue_capacity = 32;
  cfg.collector_config.backpressure.sample_down_watermark = 8;
  cfg.collector_config.backpressure.shed_watermark = 16;
  cfg.collector_config.backpressure.sweep_watermark = 24;
  Testbed bed(sim, graph, cfg);
  te::PlanckTe te(sim, bed.controller(), te::PlanckTeConfig{});
  fault::FaultInjector inj(sim, bed, seed);

  fault::ChaosConfig chaos;
  chaos.num_faults = 6;
  chaos.include_collectors = false;  // keep the reroute plane under test
  inj.plan_random(chaos);

  constexpr int kFlows = 6;
  std::vector<tcp::FlowStats> stats(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    bed.host(i)->start_flow(net::host_ip((i + 8) % 16), 5001,
                            16 * 1024 * 1024,
                            [&stats, i](const tcp::FlowStats& s) {
                              stats[static_cast<std::size_t>(i)] = s;
                            });
  }

  // The cross-component invariants hold at every point of the run, not
  // just at the end — sample them through the fault window.
  for (sim::Time t = sim::milliseconds(5); t <= sim::milliseconds(100);
       t += sim::milliseconds(5)) {
    sim.schedule_at(t, [&inj] { inj.check_epoch_invariants(); });
  }

  sim.run_until(sim::seconds(3));
  inj.check_epoch_invariants();

  ChaosResult r;
  r.digest = sim.determinism_digest();
  r.fallbacks = bed.controller().epochs().fallbacks();
  r.commits = bed.controller().epochs().committed();
  r.max_blackhole = bed.controller().max_blackhole_observed();
  for (const tcp::FlowStats& s : stats) r.completed += s.complete ? 1 : 0;
  return r;
}

TEST(EpochChaos, SameSeedRunsAreDigestIdentical) {
  const ChaosResult a = run_epoch_chaos(11, /*with_telemetry=*/false);
  const ChaosResult b = run_epoch_chaos(11, /*with_telemetry=*/false);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.completed, 6);
  EXPECT_GT(a.commits, 0u);
  EXPECT_LE(a.max_blackhole, controller::kMaxBlackholeWindow);
  // Absolute digest in the log so two revisions' CI output can be diffed
  // to prove a refactor preserved the exact event stream.
  std::printf("[digest] epoch-chaos %016" PRIx64 "\n", a.digest);
}

TEST(EpochChaos, TelemetryDoesNotPerturbTheSchedule) {
  const ChaosResult bare = run_epoch_chaos(21, /*with_telemetry=*/false);
  const ChaosResult instrumented = run_epoch_chaos(21, /*with_telemetry=*/true);
  EXPECT_EQ(bare.digest, instrumented.digest);
  EXPECT_EQ(bare.fallbacks, instrumented.fallbacks);
  EXPECT_EQ(bare.commits, instrumented.commits);
}

}  // namespace
}  // namespace planck
