// Tests for the switch model: Dynamic Threshold shared-buffer accounting,
// the rule table, forwarding, port mirroring (including oversubscription
// drops), counters, and the sFlow control-plane sampler.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/link.hpp"
#include "sim/frame_queue.hpp"
#include "sim/simulation.hpp"
#include "switchsim/shared_buffer.hpp"
#include "switchsim/switch.hpp"

namespace planck::switchsim {
namespace {

using net::Packet;

// ---------------------------------------------------------------------------
// SharedBuffer (Dynamic Threshold)
// ---------------------------------------------------------------------------

TEST(SharedBuffer, ReservedBytesAlwaysAdmitted) {
  BufferConfig cfg;
  cfg.total_bytes = sim::bytes(100'000);
  cfg.per_port_reserve = sim::bytes(3'000);
  SharedBuffer buf(cfg, 4);
  EXPECT_TRUE(buf.admit(0, sim::bytes(3'000)));
  EXPECT_EQ(buf.queue_bytes(0), sim::bytes(3'000));
  EXPECT_EQ(buf.shared_used(), sim::Bytes{0});
}

TEST(SharedBuffer, SharedUsageTracked) {
  BufferConfig cfg;
  cfg.total_bytes = sim::bytes(100'000);
  cfg.per_port_reserve = sim::bytes(1'000);
  SharedBuffer buf(cfg, 2);
  ASSERT_TRUE(buf.admit(0, sim::bytes(5'000)));
  EXPECT_EQ(buf.shared_used(), sim::bytes(4'000));
  buf.release(0, sim::bytes(5'000));
  EXPECT_EQ(buf.shared_used(), sim::Bytes{0});
  EXPECT_EQ(buf.queue_bytes(0), sim::Bytes{0});
}

TEST(SharedBuffer, DtLimitsSingleHog) {
  // With alpha = 0.8 a single congested port converges to
  // alpha/(1+alpha) of the shared pool: 4/9 of 9 MB ~= 4 MB (§5.1).
  BufferConfig cfg;  // defaults: 9 MB, alpha 0.8
  cfg.per_port_reserve = sim::bytes(0);
  SharedBuffer buf(cfg, 64);
  std::int64_t admitted = 0;
  while (buf.admit(5, sim::bytes(1500))) admitted += 1500;
  const double expected = 0.8 / 1.8 * 9.0 * 1024 * 1024;
  EXPECT_NEAR(static_cast<double>(admitted), expected, 5'000);
}

TEST(SharedBuffer, MoreCongestedPortsGetSmallerShares) {
  // §5.1: latency (queue depth) per port decreases as more ports congest.
  BufferConfig cfg;
  cfg.per_port_reserve = sim::bytes(0);
  std::vector<std::int64_t> depths;
  for (int ports : {1, 2, 4, 8}) {
    SharedBuffer buf(cfg, 64);
    bool any = true;
    while (any) {
      any = false;
      for (int p = 0; p < ports; ++p) any |= buf.admit(p, sim::bytes(1500));
    }
    depths.push_back(buf.queue_bytes(0).count());
  }
  for (std::size_t i = 1; i < depths.size(); ++i) {
    EXPECT_LT(depths[i], depths[i - 1]);
  }
}

TEST(SharedBuffer, NeverExceedsPhysicalMemory) {
  BufferConfig cfg;
  cfg.total_bytes = sim::bytes(50'000);
  cfg.per_port_reserve = sim::bytes(1'000);
  cfg.alpha = 100.0;  // pathological alpha: memory cap must still hold
  SharedBuffer buf(cfg, 4);
  std::int64_t total = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int p = 0; p < 4; ++p) {
      if (buf.admit(p, sim::bytes(1500))) total += 1500;
    }
  }
  std::int64_t sum = 0;
  for (int p = 0; p < 4; ++p) sum += buf.queue_bytes(p).count();
  EXPECT_EQ(sum, total);
  EXPECT_LE(buf.shared_used(), buf.shared_total());
}

TEST(SharedBuffer, PortCapEnforced) {
  BufferConfig cfg;
  cfg.total_bytes = sim::bytes(1'000'000);
  cfg.per_port_reserve = sim::bytes(0);
  SharedBuffer buf(cfg, 4);
  buf.set_port_cap(2, sim::bytes(4'500));
  EXPECT_TRUE(buf.admit(2, sim::bytes(1500)));
  EXPECT_TRUE(buf.admit(2, sim::bytes(1500)));
  EXPECT_TRUE(buf.admit(2, sim::bytes(1500)));
  EXPECT_FALSE(buf.admit(2, sim::bytes(1500)));
  buf.release(2, sim::bytes(1500));
  EXPECT_TRUE(buf.admit(2, sim::bytes(1500)));
  buf.set_port_cap(2, SharedBuffer::kNoCap);
  EXPECT_TRUE(buf.admit(2, sim::bytes(1500)));
}

TEST(SharedBuffer, ReleaseRestoresDtHeadroom) {
  BufferConfig cfg;
  cfg.per_port_reserve = sim::bytes(0);
  SharedBuffer buf(cfg, 64);
  while (buf.admit(0, sim::bytes(1500))) {
  }
  EXPECT_FALSE(buf.admit(0, sim::bytes(1500)));
  // Freeing another port's share frees shared memory and reopens DT.
  ASSERT_TRUE(buf.admit(1, sim::bytes(1500)));
  buf.release(1, sim::bytes(1500));
  const std::int64_t before = buf.queue_bytes(0).count();
  for (int i = 0; i < 200; ++i) buf.release(0, sim::bytes(1500));
  EXPECT_TRUE(buf.admit(0, sim::bytes(1500)));
  EXPECT_LT(buf.queue_bytes(0).count(), before);
}

// ---------------------------------------------------------------------------
// RuleTable
// ---------------------------------------------------------------------------

TEST(RuleTable, MacRuleInstallAndErase) {
  RuleTable t;
  RuleActions a;
  a.out_port = 3;
  t.set_mac_rule(net::host_mac(1), a);
  ASSERT_TRUE(t.find_mac(net::host_mac(1)).has_value());
  EXPECT_EQ(*t.find_mac(net::host_mac(1))->out_port, 3);
  EXPECT_TRUE(t.erase_mac_rule(net::host_mac(1)));
  EXPECT_FALSE(t.find_mac(net::host_mac(1)).has_value());
  EXPECT_FALSE(t.erase_mac_rule(net::host_mac(1)));
}

/// A stand-in for the routing oracle: host h is out port h, and the
/// shadow MAC of tree 1 restores the base MAC.
MacOracle port_per_host_oracle() {
  return [](net::MacAddress dst) -> std::optional<RuleActions> {
    int tree = 0;
    int host = -1;
    if (!net::is_shadow_mac(dst, &tree, &host)) host = net::host_id_of_mac(dst);
    if (host < 0 || host >= 4 || tree > 1) return std::nullopt;
    RuleActions a;
    a.out_port = host;
    if (tree == 1) a.set_dst_mac = net::host_mac(host);
    return a;
  };
}

TEST(RuleTable, OracleAnswersMacsWithoutEntries) {
  RuleTable t;
  EXPECT_FALSE(t.find_mac(net::host_mac(2)).has_value());
  t.set_mac_oracle(port_per_host_oracle());
  const std::optional<RuleActions> base = t.find_mac(net::host_mac(2));
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->out_port, 2);
  EXPECT_FALSE(base->set_dst_mac.has_value());
  const std::optional<RuleActions> shadow = t.find_mac(net::host_mac(2, 1));
  ASSERT_TRUE(shadow.has_value());
  EXPECT_EQ(shadow->set_dst_mac, net::host_mac(2));
  EXPECT_FALSE(t.find_mac(net::host_mac(7)).has_value());
}

TEST(RuleTable, ExplicitMacRuleOverridesOracle) {
  RuleTable t;
  t.set_mac_oracle(port_per_host_oracle());
  RuleActions a;
  a.out_port = 3;
  t.set_mac_rule(net::host_mac(1), a);
  EXPECT_EQ(t.find_mac(net::host_mac(1))->out_port, 3);
  // Other MACs still come from the oracle.
  EXPECT_EQ(t.find_mac(net::host_mac(2))->out_port, 2);
}

TEST(RuleTable, EraseHidesOracleRule) {
  RuleTable t;
  t.set_mac_oracle(port_per_host_oracle());
  EXPECT_TRUE(t.erase_mac_rule(net::host_mac(1)));
  EXPECT_FALSE(t.find_mac(net::host_mac(1)).has_value());
  EXPECT_FALSE(t.erase_mac_rule(net::host_mac(1)));
  // Nothing to erase where the oracle has no rule either.
  EXPECT_FALSE(t.erase_mac_rule(net::host_mac(7)));
  // An explicit write brings the MAC back.
  RuleActions a;
  a.out_port = 0;
  t.set_mac_rule(net::host_mac(1), a);
  EXPECT_EQ(t.find_mac(net::host_mac(1))->out_port, 0);
}

TEST(RuleTable, FlowRuleOverwrite) {
  RuleTable t;
  net::FlowKey k{net::host_ip(0), net::host_ip(1), 1, 2,
                 net::Protocol::kTcp};
  RuleActions a;
  a.set_dst_mac = net::host_mac(1, 2);
  t.set_flow_rule(k, a);
  a.set_dst_mac = net::host_mac(1, 3);
  t.set_flow_rule(k, a);
  EXPECT_EQ(t.flow_rule_count(), 1u);
  EXPECT_EQ(*t.find_flow(k)->set_dst_mac, net::host_mac(1, 3));
}

// ---------------------------------------------------------------------------
// Switch forwarding
// ---------------------------------------------------------------------------

class Sink : public net::Node {
 public:
  void handle_packet(const Packet& packet, int) override {
    packets.push_back(packet);
    arrivals.push_back(clock->now());
  }
  const sim::Simulation* clock = nullptr;
  std::vector<Packet> packets;
  std::vector<sim::Time> arrivals;
};

struct Fixture {
  explicit Fixture(int ports = 4, SwitchConfig cfg = {})
      : sw(sim, "sw", ports, cfg) {
    links.reserve(static_cast<std::size_t>(ports));
    sinks.resize(static_cast<std::size_t>(ports));
    for (int p = 0; p < ports; ++p) {
      links.push_back(std::make_unique<net::Link>(
          sim, sim::gigabits_per_sec(10), sim::microseconds(1)));
      sinks[static_cast<std::size_t>(p)].clock = &sim;
      links.back()->connect(&sinks[static_cast<std::size_t>(p)], 0);
      sw.attach_link(p, links.back().get());
    }
  }

  Packet make_packet(int dst_host, std::int64_t payload = 1460) {
    Packet p;
    p.src_mac = net::host_mac(0);
    p.dst_mac = net::host_mac(dst_host);
    p.src_ip = net::host_ip(0);
    p.dst_ip = net::host_ip(dst_host);
    p.src_port = 1000;
    p.dst_port = 2000;
    p.payload = static_cast<std::uint32_t>(payload);
    return p;
  }

  sim::Simulation sim;
  Switch sw;
  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<Sink> sinks;
};

TEST(Switch, ForwardsByMacRule) {
  Fixture f;
  RuleActions a;
  a.out_port = 2;
  f.sw.rules().set_mac_rule(net::host_mac(9), a);
  f.sw.handle_packet(f.make_packet(9), 0);
  f.sim.run();
  EXPECT_EQ(f.sinks[2].packets.size(), 1u);
  EXPECT_EQ(f.sw.counters(0).rx_packets, sim::packets(1));
  EXPECT_EQ(f.sw.counters(2).tx_packets, sim::packets(1));
}

TEST(Switch, DropsWithoutRule) {
  Fixture f;
  f.sw.handle_packet(f.make_packet(9), 0);
  f.sim.run();
  EXPECT_EQ(f.sw.no_route_drops(), 1u);
  for (const auto& s : f.sinks) EXPECT_TRUE(s.packets.empty());
}

TEST(Switch, FlowRuleRewritesAndReresolves) {
  Fixture f;
  RuleActions base;
  base.out_port = 1;
  f.sw.rules().set_mac_rule(net::host_mac(9), base);
  RuleActions shadow_route;
  shadow_route.out_port = 3;
  f.sw.rules().set_mac_rule(net::host_mac(9, 2), shadow_route);

  Packet p = f.make_packet(9);
  RuleActions reroute;
  reroute.set_dst_mac = net::host_mac(9, 2);
  f.sw.rules().set_flow_rule(p.flow_key(), reroute);

  f.sw.handle_packet(p, 0);
  f.sim.run();
  EXPECT_TRUE(f.sinks[1].packets.empty());
  ASSERT_EQ(f.sinks[3].packets.size(), 1u);
  EXPECT_EQ(f.sinks[3].packets[0].dst_mac, net::host_mac(9, 2));
}

TEST(Switch, EgressRewriteRestoresBaseMac) {
  Fixture f;
  RuleActions a;
  a.out_port = 1;
  a.set_dst_mac = net::host_mac(9, 0);
  f.sw.rules().set_mac_rule(net::host_mac(9, 2), a);
  Packet p = f.make_packet(9);
  p.dst_mac = net::host_mac(9, 2);
  f.sw.handle_packet(p, 0);
  f.sim.run();
  ASSERT_EQ(f.sinks[1].packets.size(), 1u);
  EXPECT_EQ(f.sinks[1].packets[0].dst_mac, net::host_mac(9, 0));
}

TEST(Switch, CrashKeepsOracleMacRules) {
  // The MAC program is flash config: a crash loses the flow rules but
  // not the oracle's rules or explicit MAC entries.
  Fixture f;
  f.sw.rules().set_mac_oracle(port_per_host_oracle());
  RuleActions a;
  a.out_port = 3;
  f.sw.rules().set_mac_rule(net::host_mac(1), a);
  f.sw.rules().set_flow_rule(f.make_packet(2).flow_key(), a);
  f.sw.set_online(false);
  f.sw.set_online(true);
  EXPECT_EQ(f.sw.rules().flow_rule_count(), 0u);
  EXPECT_EQ(f.sw.rules().find_mac(net::host_mac(1))->out_port, 3);
  f.sw.handle_packet(f.make_packet(2), 0);
  f.sim.run();
  EXPECT_EQ(f.sinks[2].packets.size(), 1u);
}

TEST(Switch, FlowAccountingOffByDefault) {
  Fixture f;
  RuleActions a;
  a.out_port = 1;
  f.sw.rules().set_mac_rule(net::host_mac(9), a);
  f.sw.handle_packet(f.make_packet(9), 0);
  f.sim.run();
  EXPECT_TRUE(f.sw.flow_counters().empty());
}

TEST(Switch, FlowAccountingCountsPayload) {
  SwitchConfig cfg;
  cfg.flow_accounting = true;
  Fixture f(4, cfg);
  RuleActions a;
  a.out_port = 1;
  f.sw.rules().set_mac_rule(net::host_mac(9), a);
  Packet p = f.make_packet(9, 1000);
  f.sw.handle_packet(p, 0);
  f.sw.handle_packet(p, 0);
  f.sim.run();
  const auto it = f.sw.flow_counters().find(p.flow_key());
  ASSERT_NE(it, f.sw.flow_counters().end());
  EXPECT_EQ(it->second.packets, sim::packets(2));
  EXPECT_EQ(it->second.bytes, sim::bytes(2000));
}

TEST(Switch, MirrorReplicatesToMonitorPort) {
  Fixture f;
  RuleActions a;
  a.out_port = 1;
  f.sw.rules().set_mac_rule(net::host_mac(9), a);
  f.sw.set_mirroring(3);
  f.sw.handle_packet(f.make_packet(9), 0);
  f.sim.run();
  EXPECT_EQ(f.sinks[1].packets.size(), 1u);
  ASSERT_EQ(f.sinks[3].packets.size(), 1u);
  EXPECT_EQ(f.sw.mirror_sent(), 1u);
  // Oracle metadata rides on the replica for validation.
  EXPECT_EQ(f.sinks[3].packets[0].oracle_in_port, 0);
  EXPECT_EQ(f.sinks[3].packets[0].oracle_out_port, 1);
}

TEST(Switch, MirrorReplicaKeepsRoutingMacBeforeEgressRewrite) {
  Fixture f;
  RuleActions a;
  a.out_port = 1;
  a.set_dst_mac = net::host_mac(9, 0);  // egress rewrite
  f.sw.rules().set_mac_rule(net::host_mac(9, 2), a);
  f.sw.set_mirroring(3);
  Packet p = f.make_packet(9);
  p.dst_mac = net::host_mac(9, 2);
  f.sw.handle_packet(p, 0);
  f.sim.run();
  ASSERT_EQ(f.sinks[3].packets.size(), 1u);
  // The replica carries the shadow MAC (the key for path inference).
  EXPECT_EQ(f.sinks[3].packets[0].dst_mac, net::host_mac(9, 2));
  ASSERT_EQ(f.sinks[1].packets.size(), 1u);
  EXPECT_EQ(f.sinks[1].packets[0].dst_mac, net::host_mac(9, 0));
}

TEST(Switch, MonitorPortTrafficIsNotReMirrored) {
  Fixture f;
  RuleActions a;
  a.out_port = 3;
  f.sw.rules().set_mac_rule(net::host_mac(9), a);
  f.sw.set_mirroring(3);
  f.sw.handle_packet(f.make_packet(9), 0);
  f.sim.run();
  // Routed to the monitor port itself: exactly one copy.
  EXPECT_EQ(f.sinks[3].packets.size(), 1u);
  EXPECT_EQ(f.sw.mirror_sent(), 0u);
}

TEST(Switch, OversubscribedMirrorDropsReplicasNotOriginals) {
  SwitchConfig cfg;
  cfg.monitor_port_cap = sim::bytes(8 * 1518);  // tiny monitor buffer
  Fixture f(4, cfg);
  RuleActions to1;
  to1.out_port = 1;
  f.sw.rules().set_mac_rule(net::host_mac(1), to1);
  RuleActions to2;
  to2.out_port = 2;
  f.sw.rules().set_mac_rule(net::host_mac(2), to2);
  f.sw.set_mirroring(3);

  // Two saturated input streams (ports 1 and 2 outputs) at the same time:
  // the monitor port sees 2x line rate and must drop about half.
  for (int i = 0; i < 200; ++i) {
    f.sw.handle_packet(f.make_packet(1), 0);
    f.sw.handle_packet(f.make_packet(2), 0);
    f.sim.run_until((i + 1) * 1231);
  }
  f.sim.run();
  EXPECT_EQ(f.sinks[1].packets.size(), 200u);
  EXPECT_EQ(f.sinks[2].packets.size(), 200u);
  EXPECT_GT(f.sw.mirror_drops(), 100u);
  EXPECT_EQ(f.sw.counters(1).drops, sim::packets(0));
  EXPECT_EQ(f.sw.counters(2).drops, sim::packets(0));
  // Samples that did get through are a mix of both flows.
  int flow1 = 0;
  for (const auto& p : f.sinks[3].packets) {
    if (p.dst_mac == net::host_mac(1)) ++flow1;
  }
  EXPECT_GT(flow1, 50);
  EXPECT_LT(flow1, 350);
}

TEST(Switch, TailDropWhenOutputCongests) {
  SwitchConfig cfg;
  cfg.buffer.total_bytes = sim::bytes(30 * 1518);
  cfg.buffer.per_port_reserve = sim::Bytes{0};
  Fixture f(4, cfg);
  RuleActions a;
  a.out_port = 1;
  f.sw.rules().set_mac_rule(net::host_mac(9), a);
  for (int i = 0; i < 100; ++i) f.sw.handle_packet(f.make_packet(9), 0);
  EXPECT_GT(f.sw.counters(1).drops.count(), 50u);
  f.sim.run();
  EXPECT_LT(f.sinks[1].packets.size(), 50u);
  EXPECT_EQ(f.sinks[1].packets.size() + f.sw.counters(1).drops.count(), 100u);
}

TEST(Switch, PortDownMidDrainKeepsOnlyTheFrameOnTheWire) {
  Fixture f;
  // Distinct sizes, spanning several frame-pool blocks.
  const std::uint64_t queued = 3 * sim::FramePool::kBlockFrames + 2;
  std::vector<sim::Bytes> sizes;
  for (std::uint64_t i = 0; i < queued; ++i) {
    const Packet p = f.make_packet(9, 100 + static_cast<std::int64_t>(i));
    sizes.push_back(p.frame_bytes());
    f.sw.inject(p, 1);
  }
  f.sim.run_until(sim::microseconds(1));  // a few frames sent, one on the wire
  const std::uint64_t sent = f.sw.counters(1).tx_packets.count();
  ASSERT_GT(sent, 0u);
  ASSERT_LT(sent + 1, queued);
  sim::Bytes dropped_bytes{0};
  for (std::uint64_t i = sent + 1; i < queued; ++i) dropped_bytes += sizes[i];

  f.sw.set_port_admin(1, false);
  EXPECT_EQ(f.sw.queue_depth_packets(1), 1u);
  EXPECT_EQ(f.sw.counters(1).drops, sim::packets(queued - sent - 1));
  EXPECT_EQ(f.sw.counters(1).drop_bytes, dropped_bytes);
  EXPECT_EQ(f.sw.fault_drops(), queued - sent - 1);
  EXPECT_EQ(f.sw.buffer().queue_bytes(1), sizes[sent]);

  f.sim.run();
  EXPECT_EQ(f.sw.counters(1).tx_packets, sim::packets(sent + 1));
  EXPECT_EQ(f.sw.queue_depth_packets(1), 0u);
  EXPECT_EQ(f.sw.buffer().queue_bytes(1), sim::Bytes{0});
}

// A 1,462-byte payload makes a 1,540-byte wire frame: exactly 1,232 ns
// at the fixture's 10 Gb/s, so arrival times carry no rounding.
constexpr sim::Duration kSer = 1232;
constexpr sim::Duration kProp = sim::microseconds(1);

TEST(Switch, LoneFrameExecutesOnlyItsDelivery) {
  Fixture f;
  const Packet p = f.make_packet(9, 1462);
  f.sw.inject(p, 1);
  f.sim.run_until(kSer / 2);  // on the wire: the port still holds it
  EXPECT_EQ(f.sw.queue_depth_packets(1), 1u);
  EXPECT_EQ(f.sw.queue_depth_bytes(1), p.frame_bytes());
  EXPECT_EQ(f.sw.counters(1).tx_packets, sim::packets(0));
  f.sim.run();
  EXPECT_EQ(f.sim.events_executed(), 1u);
  EXPECT_EQ(f.sim.events_by_kind().packets, 1u);
  EXPECT_EQ(f.sim.events_by_kind().calls, 0u);
  ASSERT_EQ(f.sinks[1].arrivals.size(), 1u);
  EXPECT_EQ(f.sinks[1].arrivals[0], kSer + kProp);
  // Readers see the frame settled once its serialization has ended.
  EXPECT_EQ(f.sw.counters(1).tx_packets, sim::packets(1));
  EXPECT_EQ(f.sw.counters(1).tx_bytes, p.frame_bytes());
  EXPECT_EQ(f.sw.queue_depth_packets(1), 0u);
  EXPECT_EQ(f.sw.queue_depth_bytes(1), sim::Bytes{0});
}

TEST(Switch, FrameBehindABusyWireStartsAtTheStoredEnd) {
  Fixture f;
  const Packet p = f.make_packet(9, 1462);
  f.sw.inject(p, 1);
  f.sim.schedule(kSer / 2, [&] { f.sw.inject(p, 1); });
  f.sim.run();
  ASSERT_EQ(f.sinks[1].arrivals.size(), 2u);
  EXPECT_EQ(f.sinks[1].arrivals[0], kSer + kProp);
  EXPECT_EQ(f.sinks[1].arrivals[1], 2 * kSer + kProp);
  // One end event, for the first frame: the second went out lone.
  EXPECT_EQ(f.sim.events_by_kind().calls, 1u);
  EXPECT_EQ(f.sw.counters(1).tx_packets, sim::packets(2));
  EXPECT_EQ(f.sw.queue_depth_bytes(1), sim::Bytes{0});
}

TEST(Switch, FrameArrivingExactlyAtTheEndStartsAtOnce) {
  Fixture f;
  const Packet p = f.make_packet(9, 1462);
  f.sw.inject(p, 1);
  f.sim.schedule(kSer, [&] { f.sw.inject(p, 1); });
  f.sim.run();
  ASSERT_EQ(f.sinks[1].arrivals.size(), 2u);
  EXPECT_EQ(f.sinks[1].arrivals[1], 2 * kSer + kProp);
  EXPECT_EQ(f.sim.events_by_kind().calls, 0u);
  EXPECT_EQ(f.sw.counters(1).tx_packets, sim::packets(2));
}

TEST(Switch, WithoutAReserveEveryFrameGetsItsEndEvent) {
  // A lone frame then holds shared-pool bytes, which every port's DT
  // threshold reads, so they are released at the end itself.
  SwitchConfig cfg;
  cfg.buffer.per_port_reserve = sim::Bytes{0};
  Fixture f(4, cfg);
  const Packet p = f.make_packet(9, 1462);
  f.sw.inject(p, 1);
  f.sim.run_until(kSer - 1);
  EXPECT_EQ(f.sw.buffer().shared_used(), p.frame_bytes());
  f.sim.run_until(kSer);
  EXPECT_EQ(f.sw.buffer().shared_used(), sim::Bytes{0});
  f.sim.run();
  EXPECT_EQ(f.sim.events_by_kind().calls, 1u);
  EXPECT_EQ(f.sinks[1].packets.size(), 1u);
}

TEST(Switch, PortDownUnderALoneFrameDropsNothing) {
  Fixture f;
  const Packet p = f.make_packet(9, 1462);
  f.sw.inject(p, 1);
  f.sim.run_until(kSer / 2);
  f.sw.set_port_admin(1, false);
  EXPECT_EQ(f.sw.counters(1).drops, sim::packets(0));
  EXPECT_EQ(f.sw.fault_drops(), 0u);
  EXPECT_EQ(f.sw.queue_depth_packets(1), 1u);
  EXPECT_EQ(f.sw.queue_depth_bytes(1), p.frame_bytes());
  f.sim.run_until(kSer);  // its end: the bytes are the port's no more
  EXPECT_EQ(f.sw.queue_depth_packets(1), 0u);
  EXPECT_EQ(f.sw.queue_depth_bytes(1), sim::Bytes{0});
  EXPECT_EQ(f.sw.counters(1).tx_packets, sim::packets(1));
  f.sim.run();
  EXPECT_TRUE(f.sinks[1].packets.empty());  // the cable died under it
  // Back up, the next admission settles it and holds only its own bytes.
  f.sw.set_port_admin(1, true);
  f.sw.inject(p, 1);
  EXPECT_EQ(f.sw.buffer().queue_bytes(1), p.frame_bytes());
  EXPECT_EQ(f.sw.counters(1).tx_packets, sim::packets(1));
}

TEST(Switch, InjectBypassesRules) {
  Fixture f;
  Packet p = f.make_packet(9);
  f.sw.inject(p, 2);
  f.sim.run();
  EXPECT_EQ(f.sinks[2].packets.size(), 1u);
  EXPECT_EQ(f.sw.no_route_drops(), 0u);
}

TEST(Switch, SFlowSamplesOneInN) {
  SwitchConfig cfg;
  cfg.sflow_one_in_n = 10;
  cfg.sflow_max_samples_per_sec = 1e9;  // no CPU limit for this test
  cfg.sflow_control_delay = sim::microseconds(100);
  Fixture f(4, cfg);
  RuleActions a;
  a.out_port = 1;
  f.sw.rules().set_mac_rule(net::host_mac(9), a);
  int samples = 0;
  f.sw.set_sflow_handler(
      [&](const Packet&, int in, int out, std::uint32_t rate) {
        ++samples;
        EXPECT_EQ(in, 0);
        EXPECT_EQ(out, 1);
        EXPECT_EQ(rate, 10u);
      });
  for (int i = 0; i < 100; ++i) {
    f.sw.handle_packet(f.make_packet(9), 0);
    f.sim.run_until((i + 1) * 1231);
  }
  f.sim.run();
  EXPECT_EQ(samples, 10);
}

TEST(Switch, SFlowRateLimitedByControlPlane) {
  // The G8264's control path maxes out around 300 samples/s (§2.1); with a
  // huge offered load the sampler must not exceed the token rate.
  SwitchConfig cfg;
  cfg.sflow_one_in_n = 1;
  cfg.sflow_max_samples_per_sec = 300;
  Fixture f(4, cfg);
  RuleActions a;
  a.out_port = 1;
  f.sw.rules().set_mac_rule(net::host_mac(9), a);
  int samples = 0;
  f.sw.set_sflow_handler(
      [&](const Packet&, int, int, std::uint32_t) { ++samples; });
  // 0.1 s of line-rate traffic ~= 81k packets; expect <= ~30 samples + burst.
  for (int i = 0; i < 81000; ++i) {
    f.sw.handle_packet(f.make_packet(9), 0);
    f.sim.run_until((i + 1) * 1231);
  }
  f.sim.run();
  EXPECT_LE(samples, 45);
  EXPECT_GE(samples, 20);
}

// Parameterized DT property: for any number of hog ports, the sum of queue
// bytes never exceeds the configured memory.
class DtInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(DtInvariantTest, TotalNeverExceedsMemory) {
  BufferConfig cfg;
  cfg.total_bytes = sim::bytes(2'000'000);
  cfg.per_port_reserve = sim::bytes(3'036);
  const int hogs = GetParam();
  SharedBuffer buf(cfg, 16);
  bool any = true;
  while (any) {
    any = false;
    for (int p = 0; p < hogs; ++p) any |= buf.admit(p, sim::bytes(1500));
  }
  std::int64_t sum = 0;
  for (int p = 0; p < 16; ++p) sum += buf.queue_bytes(p).count();
  EXPECT_LE(sum, cfg.total_bytes.count());
  // And the hogs share roughly equally.
  for (int p = 1; p < hogs; ++p) {
    EXPECT_NEAR(static_cast<double>(buf.queue_bytes(p).count()),
                static_cast<double>(buf.queue_bytes(0).count()), 2 * 1500.0);
  }
}

INSTANTIATE_TEST_SUITE_P(HogCounts, DtInvariantTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

}  // namespace
}  // namespace planck::switchsim
