// Tests for the TCP stack and host model: transfers over clean and lossy
// paths, congestion response, retransmission semantics, ARP cache
// behaviour (including the spoofed-request reroute), NIC backpressure, and
// the CBR source.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "switchsim/switch.hpp"
#include "tcp/cbr_source.hpp"
#include "tcp/host.hpp"
#include "workload/testbed.hpp"

namespace planck::tcp {
namespace {

/// A star testbed: `n` hosts, one switch, no Planck, 10 Gbps.
struct Star {
  explicit Star(int n, workload::TestbedConfig cfg = no_planck(),
                sim::BitsPerSec rate = sim::gigabits_per_sec(10))
      : graph(net::make_star(n, net::LinkSpec{rate, sim::microseconds(40)})),
        bed(sim, graph, cfg) {}

  static workload::TestbedConfig no_planck() {
    workload::TestbedConfig cfg;
    cfg.enable_planck = false;
    return cfg;
  }

  sim::Simulation sim;
  net::TopologyGraph graph;
  workload::Testbed bed;
};

TEST(Tcp, TransfersAllBytesAtLineRate) {
  Star star(2);
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 10 * 1024 * 1024,
                               [&](const FlowStats& s) { result = s; });
  star.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.total_bytes, sim::mebibytes(10));
  EXPECT_EQ(result.retransmits, 0u);
  EXPECT_EQ(result.timeouts, 0u);
  // Goodput close to the 9.49 Gbps payload ceiling of 10 GbE.
  EXPECT_GT(result.throughput_bps(), 8.5e9);
  EXPECT_LT(result.throughput_bps(), 9.5e9);
  // Receiver actually got the bytes.
  ASSERT_EQ(star.bed.host(1)->receivers().size(), 1u);
  EXPECT_EQ(star.bed.host(1)->receivers()[0]->bytes_delivered(),
            10 * 1024 * 1024);
  EXPECT_TRUE(star.bed.host(1)->receivers()[0]->saw_fin());
}

TEST(Tcp, TinyFlowCompletes) {
  Star star(2);
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 1000,
                               [&](const FlowStats& s) { result = s; });
  star.sim.run_until(sim::seconds(1));
  ASSERT_TRUE(result.complete);
  // SYN handshake + one segment + ACK: a few RTTs at ~160 us.
  EXPECT_LT(result.completed_at - result.started_at, sim::milliseconds(2));
}

TEST(Tcp, ZeroByteFlowCompletesAfterHandshake) {
  Star star(2);
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 0,
                               [&](const FlowStats& s) { result = s; });
  star.sim.run_until(sim::seconds(1));
  EXPECT_TRUE(result.complete);
}

TEST(Tcp, HandshakeMeasuredInStats) {
  Star star(2);
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 1024 * 1024,
                               [&](const FlowStats& s) { result = s; });
  star.sim.run_until(sim::seconds(1));
  ASSERT_TRUE(result.complete);
  EXPECT_GT(result.established_at, result.started_at);
  // Handshake takes one RTT: 4 hops of 40 us plus serialization.
  EXPECT_NEAR(static_cast<double>(result.established_at - result.started_at),
              static_cast<double>(sim::microseconds(160)),
              static_cast<double>(sim::microseconds(40)));
}

TEST(Tcp, TwoFlowsShareFairly) {
  Star star(3);
  FlowStats s1;
  FlowStats s2;
  star.bed.host(0)->start_flow(net::host_ip(2), 5001, 100 * 1024 * 1024,
                               [&](const FlowStats& s) { s1 = s; });
  // Offset the second flow so the first is at steady state (avoids the
  // deterministic-phase-lock pathology of simultaneous slow starts).
  star.sim.schedule_at(sim::milliseconds(5), [&] {
    star.bed.host(1)->start_flow(net::host_ip(2), 5001, 100 * 1024 * 1024,
                                 [&](const FlowStats& s) { s2 = s; });
  });
  star.sim.run_until(sim::seconds(10));
  ASSERT_TRUE(s1.complete);
  ASSERT_TRUE(s2.complete);
  // Both get comparable shares (tail-drop synchronization costs some
  // total utilization, as on real shallow-buffer switches).
  EXPECT_GT(s1.throughput_bps(), 2.0e9);
  EXPECT_GT(s2.throughput_bps(), 2.0e9);
  const double ratio = s1.throughput_bps() / s2.throughput_bps();
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.7);
}

TEST(Tcp, CongestionCausesRetransmissionsNotCorruption) {
  // A shallow-buffered switch guarantees drops under 2:1 congestion
  // (HyStart avoids them entirely with the default 9 MB buffer).
  workload::TestbedConfig cfg = Star::no_planck();
  cfg.switch_config.buffer.total_bytes = sim::kibibytes(256);
  Star star(3, cfg);
  FlowStats s1;
  FlowStats s2;
  star.bed.host(0)->start_flow(net::host_ip(2), 5001, 20 * 1024 * 1024,
                               [&](const FlowStats& s) { s1 = s; });
  star.sim.schedule_at(sim::milliseconds(3), [&] {
    star.bed.host(1)->start_flow(net::host_ip(2), 5001, 20 * 1024 * 1024,
                                 [&](const FlowStats& s) { s2 = s; });
  });
  star.sim.run_until(sim::seconds(10));
  ASSERT_TRUE(s1.complete);
  ASSERT_TRUE(s2.complete);
  EXPECT_GT(s1.retransmits + s2.retransmits, 0u);
  // Exactly every byte delivered in order despite loss.
  std::int64_t delivered = 0;
  for (const auto& r : star.bed.host(2)->receivers()) {
    delivered += r->bytes_delivered();
  }
  EXPECT_EQ(delivered, 2 * 20 * 1024 * 1024);
}

TEST(Tcp, RecoversViaFastRetransmitWithoutTimeout) {
  // A brief two-packet loss mid-flow: with SACK-guided recovery there
  // must be no RTO.
  Star star(2);
  auto* sw = star.bed.switch_by_node(star.graph.switch_node(0));
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 50 * 1024 * 1024,
                               [&](const FlowStats& s) { result = s; });
  star.sim.schedule_at(sim::milliseconds(10), [&] {
    sw->rules().erase_mac_rule(net::host_mac(1));
  });
  star.sim.schedule_at(sim::milliseconds(10) + sim::microseconds(2), [&] {
    switchsim::RuleActions a;
    a.out_port = 1;
    sw->rules().set_mac_rule(net::host_mac(1), a);
  });
  star.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  EXPECT_GT(result.retransmits, 0u);
  EXPECT_EQ(result.timeouts, 0u);
  EXPECT_GT(result.throughput_bps(), 7e9);
}

TEST(Tcp, AckCarriesLowestSackBlockUntilTheHoleFills) {
  // Segments delivered straight to the receiving host: each one past a
  // hole draws an immediate ACK naming rcv_nxt and the first byte of the
  // lowest out-of-order block; once every hole fills, sack_start is 0.
  Star star(2);
  Host* rx = star.bed.host(1);
  std::vector<net::Packet> acks;
  rx->set_tx_hook([&](const net::Packet& p) {
    if (p.flags == net::kAck) acks.push_back(p);
  });
  net::Packet seg;
  seg.src_mac = net::host_mac(0);
  seg.dst_mac = rx->mac();
  seg.src_ip = net::host_ip(0);
  seg.dst_ip = net::host_ip(1);
  seg.src_port = 40000;
  seg.dst_port = 5001;
  auto deliver = [&](std::uint8_t flags, std::uint64_t seq,
                     std::uint32_t payload) {
    seg.flags = flags;
    seg.seq = seq;
    seg.payload = payload;
    rx->handle_packet(seg, 0);
    star.sim.run_until(star.sim.now() + sim::microseconds(100));
  };
  deliver(net::kSyn, 0, 0);
  ASSERT_EQ(rx->receivers().size(), 1u);
  const TcpReceiver& receiver = *rx->receivers()[0];

  struct Step {
    std::uint64_t seq;
    std::uint64_t ack;
    std::uint64_t sack_start;
  };
  // Holes at [0, 1000) and [2000, 3000); the last two segments fill them.
  const Step steps[] = {
      {1000, 0, 1000},  // block past a hole at byte 0: rcv_nxt is 0
      {3000, 0, 1000},  // a second block above it: still the lowest
      {0, 2000, 3000},  // first hole fills; [1000, 2000) joins it
      {2000, 4000, 0},  // last hole fills: no block left
  };
  for (const Step& step : steps) {
    const std::size_t before = acks.size();
    deliver(net::kAck, step.seq, 1000);
    ASSERT_EQ(acks.size(), before + 1) << "seq " << step.seq;
    EXPECT_EQ(acks.back().ack, step.ack) << "seq " << step.seq;
    EXPECT_EQ(acks.back().ack,
              static_cast<std::uint64_t>(receiver.rcv_nxt()));
    EXPECT_EQ(acks.back().sack_start, step.sack_start) << "seq " << step.seq;
  }
}

TEST(Tcp, RtoRecoversFromTotalBlackout) {
  Star star(2);
  auto* sw = star.bed.switch_by_node(star.graph.switch_node(0));
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 5 * 1024 * 1024,
                               [&](const FlowStats& s) { result = s; });
  // Black out the path for 30 ms starting at 2 ms: whole windows die.
  star.sim.schedule_at(sim::milliseconds(2), [&] {
    sw->rules().erase_mac_rule(net::host_mac(1));
  });
  star.sim.schedule_at(sim::milliseconds(32), [&] {
    switchsim::RuleActions a;
    a.out_port = 1;
    sw->rules().set_mac_rule(net::host_mac(1), a);
  });
  star.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  EXPECT_GE(result.timeouts, 1u);
  EXPECT_EQ(star.bed.host(1)->receivers()[0]->bytes_delivered(),
            5 * 1024 * 1024);
}

TEST(Tcp, FirstSentTimestampSurvivesRetransmission) {
  // Receiver-side latency (Figure 3) must include retransmission delay:
  // packets carry the first-transmission time of their byte range. A
  // shallow buffer forces the losses.
  workload::TestbedConfig cfg = Star::no_planck();
  cfg.switch_config.buffer.total_bytes = sim::kibibytes(128);
  Star star(3, cfg);
  sim::Time max_latency = 0;
  star.bed.host(2)->set_rx_hook([&](const net::Packet& p) {
    if (p.payload == 0) return;
    max_latency = std::max(max_latency, star.sim.now() - p.first_sent_at);
  });
  FlowStats s1;
  FlowStats s2;
  star.bed.host(0)->start_flow(net::host_ip(2), 5001, 20 * 1024 * 1024,
                               [&](const FlowStats& s) { s1 = s; });
  star.bed.host(1)->start_flow(net::host_ip(2), 5001, 20 * 1024 * 1024,
                               [&](const FlowStats& s) { s2 = s; });
  star.sim.run_until(sim::seconds(10));
  ASSERT_TRUE(s1.complete && s2.complete);
  ASSERT_GT(s1.retransmits + s2.retransmits, 0u);
  // Some retransmitted packet should show latency well above the base
  // (propagation + queueing < 4 ms; a retransmission adds an RTT or RTO).
  EXPECT_GT(max_latency, sim::milliseconds(4));
}

TEST(Tcp, SequentialFlowsFromOneHostGetDistinctPorts) {
  Star star(2);
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    star.bed.host(0)->start_flow(net::host_ip(1), 5001, 1024 * 1024,
                                 [&](const FlowStats&) { ++completed; });
  }
  star.sim.run_until(sim::seconds(5));
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(star.bed.host(1)->receivers().size(), 3u);
}

// ---------------------------------------------------------------------------
// ARP cache semantics (§6.2)
// ---------------------------------------------------------------------------

net::Packet make_arp(int target_host, int subject_host,
                     net::MacAddress advertised,
                     net::ArpOp op = net::ArpOp::kRequest) {
  net::Packet arp;
  arp.proto = net::Protocol::kArp;
  arp.arp_op = op;
  arp.src_ip = net::host_ip(subject_host);
  arp.dst_ip = net::host_ip(target_host);
  arp.src_mac = advertised;
  arp.dst_mac = net::host_mac(target_host);
  return arp;
}

TEST(Host, ArpRequestUpdatesCache) {
  sim::Simulation sim;
  Host host(sim, 0, HostConfig{});
  host.set_arp(net::host_ip(5), net::host_mac(5, 0));
  host.handle_packet(make_arp(0, 5, net::host_mac(5, 2)), 0);
  EXPECT_EQ(host.lookup_arp(net::host_ip(5)), net::host_mac(5, 2));
  EXPECT_EQ(host.arp_updates(), 1u);
}

TEST(Host, UnsolicitedArpReplyIgnored) {
  // Linux ignores spurious replies; the paper works around it with
  // unicast requests (§6.2).
  sim::Simulation sim;
  Host host(sim, 0, HostConfig{});
  host.set_arp(net::host_ip(5), net::host_mac(5, 0));
  host.handle_packet(make_arp(0, 5, net::host_mac(5, 2), net::ArpOp::kReply),
                     0);
  EXPECT_EQ(host.lookup_arp(net::host_ip(5)), net::host_mac(5, 0));
  EXPECT_EQ(host.arp_updates(), 0u);
}

TEST(Host, ArpLocktimeBlocksRapidUpdates) {
  sim::Simulation sim;
  HostConfig cfg;
  cfg.arp_locktime = sim::seconds(1);
  Host host(sim, 0, cfg);
  bool second_checked = false;
  sim.schedule(0, [&] {
    host.handle_packet(make_arp(0, 5, net::host_mac(5, 1)), 0);
  });
  sim.schedule(sim::milliseconds(10), [&] {
    host.handle_packet(make_arp(0, 5, net::host_mac(5, 2)), 0);
    EXPECT_EQ(host.lookup_arp(net::host_ip(5)), net::host_mac(5, 1));
    second_checked = true;
  });
  sim.schedule(sim::milliseconds(1500), [&] {
    host.handle_packet(make_arp(0, 5, net::host_mac(5, 3)), 0);
    EXPECT_EQ(host.lookup_arp(net::host_ip(5)), net::host_mac(5, 3));
  });
  sim.run();
  EXPECT_TRUE(second_checked);
  EXPECT_EQ(host.arp_updates(), 2u);
}

TEST(Host, ArpLearningCanBeDisabled) {
  sim::Simulation sim;
  HostConfig cfg;
  cfg.learn_from_arp_request = false;
  Host host(sim, 0, cfg);
  host.handle_packet(make_arp(0, 5, net::host_mac(5, 1)), 0);
  EXPECT_EQ(host.lookup_arp(net::host_ip(5)), net::kMacNone);
}

TEST(Host, ResolvesFabricHostsToBaseMacs) {
  sim::Simulation sim;
  Host host(sim, 3, HostConfig{});
  // A standalone host resolves nothing.
  EXPECT_EQ(host.lookup_arp(net::host_ip(5)), net::kMacNone);
  host.resolve_fabric_hosts(8);
  for (int id = 0; id < 8; ++id) {
    EXPECT_EQ(host.lookup_arp(net::host_ip(id)),
              id == 3 ? net::kMacNone : net::host_mac(id, 0))
        << "id " << id;
  }
  EXPECT_EQ(host.lookup_arp(net::host_ip(8)), net::kMacNone);
  EXPECT_EQ(host.lookup_arp(net::host_ip(9)), net::kMacNone);
  EXPECT_EQ(host.lookup_arp((192u << 24) | 1u), net::kMacNone);
  // A cached entry overrides the fallback.
  host.set_arp(net::host_ip(5), net::host_mac(5, 2));
  EXPECT_EQ(host.lookup_arp(net::host_ip(5)), net::host_mac(5, 2));
}

TEST(Host, ResolvedFabricEntriesLearnAndLockLikeCachedOnes) {
  // A resolved host behaves as if its base entry was written when the
  // fabric was resolved: a spoofed request updates it once, and the
  // locktime runs from the resolve time.
  sim::Simulation sim;
  HostConfig cfg;
  cfg.arp_locktime = sim::milliseconds(5);
  Host host(sim, 0, cfg);
  host.resolve_fabric_hosts(8);
  host.handle_packet(make_arp(0, 5, net::host_mac(5, 0)), 0);
  EXPECT_EQ(host.arp_updates(), 0u);  // already the base MAC
  sim.schedule(sim::milliseconds(1), [&] {
    host.handle_packet(make_arp(0, 5, net::host_mac(5, 1)), 0);
  });
  sim.schedule(sim::milliseconds(6), [&] {
    host.handle_packet(make_arp(0, 6, net::host_mac(6, 1)), 0);
  });
  sim.run();
  EXPECT_EQ(host.lookup_arp(net::host_ip(5)), net::host_mac(5, 0));
  EXPECT_EQ(host.lookup_arp(net::host_ip(6)), net::host_mac(6, 1));
  EXPECT_EQ(host.arp_updates(), 1u);
}

TEST(Host, DropsFramesForOtherMacs) {
  // Shadow-MAC traffic must be rewritten by the egress switch; the host
  // refuses it otherwise (§6.2).
  sim::Simulation sim;
  Host host(sim, 0, HostConfig{});
  net::Packet p;
  p.proto = net::Protocol::kTcp;
  p.dst_mac = net::host_mac(0, 2);  // own shadow MAC: not accepted
  p.flags = net::kSyn;
  p.src_ip = net::host_ip(1);
  p.dst_ip = net::host_ip(0);
  host.handle_packet(p, 0);
  EXPECT_TRUE(host.receivers().empty());
  p.dst_mac = net::host_mac(0);
  host.handle_packet(p, 0);
  EXPECT_EQ(host.receivers().size(), 1u);
}

TEST(Host, SendWithoutArpEntryFails) {
  sim::Simulation sim;
  Host host(sim, 0, HostConfig{});
  net::Packet p;
  p.dst_ip = net::host_ip(3);
  EXPECT_FALSE(host.send(p));
  EXPECT_EQ(host.nic_drops(), 1u);
}

TEST(Host, NicQueueLimitAndHeadroom) {
  sim::Simulation sim;
  HostConfig cfg;
  cfg.nic_queue_bytes = sim::bytes(3 * 1518);
  Host host(sim, 0, cfg);
  net::Link link(sim, sim::megabits_per_sec(1), 0);  // very slow: 1 Mbps
  struct NullSink : net::Node {
    void handle_packet(const net::Packet&, int) override {}
  } sink;
  link.connect(&sink, 0);
  host.attach_link(&link);
  host.set_arp(net::host_ip(1), net::host_mac(1));
  net::Packet p;
  p.dst_ip = net::host_ip(1);
  p.payload = 1460;
  EXPECT_TRUE(host.send(p));
  EXPECT_TRUE(host.send(p));
  EXPECT_TRUE(host.send(p));
  EXPECT_FALSE(host.send(p));  // queue full
  EXPECT_EQ(host.nic_drops(), 1u);
  EXPECT_LE(host.nic_headroom(), sim::Bytes{0});
}

TEST(Host, FrameOnAnIdleWireSkipsTheQueue) {
  // An idle wire with no stall due takes the frame at once: it never
  // enters the NIC queue, so the partition's frame pool carves no block.
  // The next frame finds the wire busy and queues.
  sim::Simulation sim;
  Host host(sim, 0, HostConfig{});
  net::Link link(sim, sim::megabits_per_sec(1), 0);
  struct NullSink : net::Node {
    void handle_packet(const net::Packet&, int) override {}
  } sink;
  link.connect(&sink, 0);
  host.attach_link(&link);
  host.set_arp(net::host_ip(1), net::host_mac(1));
  std::vector<sim::Time> sent;
  host.set_tx_hook(
      [&sent](const net::Packet& p) { sent.push_back(p.sent_at); });
  net::Packet p;
  p.dst_ip = net::host_ip(1);
  p.payload = 1460;
  EXPECT_TRUE(host.send(p));
  EXPECT_TRUE(link.busy());
  EXPECT_EQ(sent, std::vector<sim::Time>{0});
  EXPECT_EQ(sim.frame_pool().blocks(), 0u);
  EXPECT_TRUE(host.send(p));
  EXPECT_EQ(sim.frame_pool().blocks(), 1u);
  sim.run();
  EXPECT_EQ(sent.size(), 2u);
  EXPECT_EQ(link.packets_sent().count(), 2u);
}

TEST(Host, NicWaiterWakesAtTheLoneFrameEnd) {
  // A NIC of just under two frames: while one data segment is on the wire
  // the next does not fit, so the sender waits on a lone frame, which has
  // no end event of its own until the wait asks for one.
  workload::TestbedConfig cfg = Star::no_planck();
  cfg.host_config.nic_queue_bytes = sim::bytes(2 * 1500);
  Star star(2, cfg);
  std::vector<sim::Time> data_sent;
  star.bed.host(0)->set_tx_hook([&](const net::Packet& p) {
    if (p.payload == static_cast<std::uint32_t>(net::kMss)) {
      data_sent.push_back(p.sent_at);
    }
  });
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 10 * net::kMss,
                               [&](const FlowStats& s) { result = s; });
  star.sim.run_until(sim::seconds(1));
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(star.bed.host(0)->nic_drops(), 0u);
  // The initial window goes out back to back: each segment starts at the
  // end of the one before, not when an ACK next wakes the sender.
  ASSERT_EQ(data_sent.size(), 10u);
  const net::Packet full = [] {
    net::Packet p;
    p.payload = static_cast<std::uint32_t>(net::kMss);
    return p;
  }();
  const sim::Duration ser = sim::serialization_delay(
      full.wire_bytes(), sim::gigabits_per_sec(10));
  for (std::size_t i = 1; i < data_sent.size(); ++i) {
    const sim::Duration gap = data_sent[i] - data_sent[i - 1];
    EXPECT_LE(gap, ser) << "segment " << i;
    EXPECT_GE(gap, ser - 1) << "segment " << i;
  }
}

TEST(Host, TxHookSeesWireTimestamps) {
  Star star(2);
  std::vector<sim::Time> stamps;
  star.bed.host(0)->set_tx_hook([&](const net::Packet& p) {
    EXPECT_EQ(p.sent_at, star.sim.now());
    stamps.push_back(p.sent_at);
  });
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 100 * 1024,
                               [&](const FlowStats& s) { result = s; });
  star.sim.run_until(sim::seconds(1));
  ASSERT_TRUE(result.complete);
  EXPECT_GE(stamps.size(), 70u);  // ~69 data segments + SYN/FIN
  EXPECT_TRUE(std::is_sorted(stamps.begin(), stamps.end()));
}

TEST(Host, RerouteViaArpAffectsSubsequentPackets) {
  Star star(2);
  // Give the switch a route for host 1's shadow MAC 1 that lands on port
  // 1 with an egress rewrite (a star has no real alternate path; this
  // checks the MAC actually changes on the wire).
  auto* sw = star.bed.switch_by_node(star.graph.switch_node(0));
  switchsim::RuleActions a;
  a.out_port = 1;
  a.set_dst_mac = net::host_mac(1, 0);
  sw->rules().set_mac_rule(net::host_mac(1, 1), a);

  std::vector<net::MacAddress> macs;
  star.bed.host(0)->set_tx_hook([&](const net::Packet& p) {
    if (p.payload > 0) macs.push_back(p.dst_mac);
  });
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 20 * 1024 * 1024,
                               [&](const FlowStats& s) { result = s; });
  star.sim.schedule_at(sim::milliseconds(5), [&] {
    star.bed.host(0)->handle_packet(make_arp(0, 1, net::host_mac(1, 1)), 0);
  });
  star.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  ASSERT_FALSE(macs.empty());
  EXPECT_EQ(macs.front(), net::host_mac(1, 0));
  EXPECT_EQ(macs.back(), net::host_mac(1, 1));
}

// ---------------------------------------------------------------------------
// CBR source
// ---------------------------------------------------------------------------

TEST(CbrSource, HitsConfiguredRate) {
  Star star(2);
  std::int64_t received_payload = 0;
  star.bed.host(1)->set_rx_hook([&](const net::Packet& p) {
    if (p.proto == net::Protocol::kUdp) received_payload += p.payload;
  });
  CbrSource source(star.sim, *star.bed.host(0), net::host_ip(1), 7000, 7001,
                   sim::gigabits_per_sec(1));  // 1 Gbps of wire
  source.start();
  star.sim.schedule_at(sim::milliseconds(100), [&] { source.stop(); });
  star.sim.run_until(sim::milliseconds(200));
  // 1 Gbps wire rate for 100 ms ~= 11.9 MB of payload (1460/1538 ratio).
  const double expected = 1e9 / 8 * 0.1 * (1460.0 / 1538.0);
  EXPECT_NEAR(static_cast<double>(received_payload), expected,
              expected * 0.02);
}

TEST(CbrSource, SequenceNumbersAreByteOffsets) {
  Star star(2);
  std::vector<std::uint64_t> seqs;
  star.bed.host(1)->set_rx_hook([&](const net::Packet& p) {
    if (p.proto == net::Protocol::kUdp) seqs.push_back(p.seq);
  });
  CbrSource source(star.sim, *star.bed.host(0), net::host_ip(1), 7000, 7001,
                   sim::megabits_per_sec(100), sim::bytes(1000));
  source.start();
  star.sim.run_until(sim::milliseconds(5));
  source.stop();
  star.sim.run_until(sim::milliseconds(6));
  ASSERT_GE(seqs.size(), 3u);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], i * 1000);
  }
}

// Parameterized: transfers of many sizes all complete exactly.
class TcpSizeTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TcpSizeTest, DeliversExactByteCount) {
  Star star(2);
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, GetParam(),
                               [&](const FlowStats& s) { result = s; });
  star.sim.run_until(sim::seconds(30));
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(star.bed.host(1)->receivers()[0]->bytes_delivered(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpSizeTest,
                         ::testing::Values(1, 100, 1460, 1461, 4096, 65536,
                                           1'000'000, 25'000'000));

}  // namespace
}  // namespace planck::tcp
