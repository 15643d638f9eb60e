// Tests for the network primitives: addresses, packets and flow keys,
// links, and topology graphs.

#include <gtest/gtest.h>

#include <set>

#include "net/addresses.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/route_info.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace planck::net {
namespace {

// ---------------------------------------------------------------------------
// Addresses
// ---------------------------------------------------------------------------

TEST(Addresses, HostMacRoundTrip) {
  for (int h : {0, 1, 15, 255}) {
    EXPECT_EQ(host_id_of_mac(host_mac(h)), h);
  }
}

TEST(Addresses, ShadowMacEncodesTreeAndHost) {
  for (int h : {0, 7, 15}) {
    for (int t : {1, 2, 3}) {
      const MacAddress mac = host_mac(h, t);
      int tree = 0;
      int id = -1;
      ASSERT_TRUE(is_shadow_mac(mac, &tree, &id));
      EXPECT_EQ(tree, t);
      EXPECT_EQ(id, h);
      EXPECT_EQ(host_id_of_mac(mac), h);
    }
  }
}

TEST(Addresses, BaseMacIsNotShadow) {
  EXPECT_FALSE(is_shadow_mac(host_mac(3)));
  EXPECT_FALSE(is_shadow_mac(kMacBroadcast));
}

TEST(Addresses, ShadowMacsDistinctFromBase) {
  std::set<MacAddress> macs;
  for (int h = 0; h < 16; ++h) {
    for (int t = 0; t < 4; ++t) macs.insert(host_mac(h, t));
  }
  EXPECT_EQ(macs.size(), 64u);
}

TEST(Addresses, HostIpRoundTrip) {
  for (int h : {0, 1, 15, 255, 300}) {
    EXPECT_EQ(host_id_of_ip(host_ip(h)), h);
  }
  EXPECT_EQ(host_id_of_ip(0), -1);
  EXPECT_EQ(host_id_of_ip((192u << 24) | 1), -1);
}

TEST(Addresses, ShadowMacRejectsOutOfRangeHostIds) {
  // A stray 48-bit value inside the shadow OUI whose stride offset is not
  // a provisioned host id must not decode as a shadow MAC.
  const MacAddress bogus_host =
      kShadowMacBase + static_cast<MacAddress>(kMaxAddressableHosts);
  EXPECT_FALSE(is_shadow_mac(bogus_host));
  EXPECT_EQ(host_id_of_mac(bogus_host), -1);
  const MacAddress last_valid =
      kShadowMacBase + static_cast<MacAddress>(kMaxAddressableHosts - 1);
  int tree = 0;
  int id = -1;
  ASSERT_TRUE(is_shadow_mac(last_valid, &tree, &id));
  EXPECT_EQ(tree, 1);
  EXPECT_EQ(id, kMaxAddressableHosts - 1);
}

TEST(Addresses, ShadowMacRejectsUnprovisionedTrees) {
  // Shadow trees run 1..kMaxProvisionedTrees-1; the stride one past the
  // last provisioned tree is not a shadow MAC.
  EXPECT_TRUE(is_shadow_mac(host_mac(0, kMaxProvisionedTrees - 1)));
  const MacAddress past = kShadowMacBase +
                          static_cast<MacAddress>(kMaxProvisionedTrees - 1) *
                              kShadowTreeStride;
  EXPECT_FALSE(is_shadow_mac(past));
}

TEST(Addresses, BaseMacBoundIsSymmetric) {
  EXPECT_EQ(host_id_of_mac(host_mac(kMaxAddressableHosts - 1)),
            kMaxAddressableHosts - 1);
  EXPECT_EQ(host_id_of_mac(kHostMacBase +
                           static_cast<MacAddress>(kMaxAddressableHosts)),
            -1);
}

TEST(Addresses, HostIpThrowsPastAddressablePlan) {
  EXPECT_NO_THROW(host_ip(kMaxAddressableHosts - 1));
  EXPECT_THROW(host_ip(kMaxAddressableHosts), std::out_of_range);
  EXPECT_THROW(host_ip(-1), std::out_of_range);
}

TEST(Addresses, HostIdOfIpRejectsForeignSecondOctet) {
  // 10.1.0.1 is outside the plan's 10.0/16 block — previously it decoded
  // as an alias of 10.0.0.1.
  const IpAddress foreign = (10u << 24) | (1u << 16) | 1u;
  EXPECT_EQ(host_id_of_ip(foreign), -1);
  EXPECT_EQ(host_id_of_ip(host_ip(kMaxAddressableHosts - 1)),
            kMaxAddressableHosts - 1);
}

TEST(Addresses, Formatting) {
  EXPECT_EQ(mac_to_string(host_mac(1)), "02:00:00:00:00:01");
  EXPECT_EQ(ip_to_string(host_ip(0)), "10.0.0.1");
  EXPECT_EQ(ip_to_string(host_ip(250)), "10.0.1.1");
}

// ---------------------------------------------------------------------------
// Packets and flow keys
// ---------------------------------------------------------------------------

TEST(Packet, WireAndFrameSizes) {
  Packet p;
  p.payload = 1460;
  EXPECT_EQ(p.frame_size(), 1518);
  EXPECT_EQ(p.wire_size(), 1538);
  p.payload = 0;
  EXPECT_EQ(p.frame_size(), 58);
  p.proto = Protocol::kArp;
  EXPECT_EQ(p.frame_size(), 64);
}

TEST(Packet, FlagHelpers) {
  Packet p;
  p.flags = kSyn | kAck;
  EXPECT_TRUE(p.has_flag(kSyn));
  EXPECT_TRUE(p.has_flag(kAck));
  EXPECT_FALSE(p.has_flag(kFin));
}

TEST(FlowKey, EqualityAndReverse) {
  FlowKey k{host_ip(0), host_ip(1), 1000, 2000, Protocol::kTcp};
  EXPECT_EQ(k, k);
  const FlowKey r = k.reversed();
  EXPECT_EQ(r.src_ip, k.dst_ip);
  EXPECT_EQ(r.src_port, k.dst_port);
  EXPECT_EQ(r.reversed(), k);
  EXPECT_NE(r, k);
}

TEST(DirectedLink, HashAndEquality) {
  DirectedLink a{3, 1};
  DirectedLink b{3, 1};
  DirectedLink c{3, 2};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SwitchRouteView, LookupsAndMisses) {
  SwitchRouteView view;
  view.out_port_by_dst[host_mac(4)] = 2;
  view.in_port_by_pair[MacPair{host_mac(0), host_mac(4)}] = 1;
  EXPECT_EQ(view.out_port(host_mac(4)), 2);
  EXPECT_EQ(view.out_port(host_mac(5)), -1);
  EXPECT_EQ(view.in_port(host_mac(0), host_mac(4)), 1);
  EXPECT_EQ(view.in_port(host_mac(1), host_mac(4)), -1);
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

class Sink : public Node {
 public:
  void handle_packet(const Packet& packet, int in_port) override {
    packets.push_back(packet);
    ports.push_back(in_port);
  }
  std::vector<Packet> packets;
  std::vector<int> ports;
};

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::Simulation sim;
  Link link(sim, sim::gigabits_per_sec(10), sim::microseconds(10));
  Sink sink;
  link.connect(&sink, 7);

  Packet p;
  p.payload = 1460;
  const sim::Time free_at = link.transmit(p);
  // 1538 B at 10 Gbps = 1230.4 ns; the link carries the fractional part
  // forward, so the first packet serializes in 1230 ns.
  EXPECT_EQ(free_at, 1230);
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.ports[0], 7);
  EXPECT_EQ(sim.now(), 1230 + sim::microseconds(10));
}

TEST(Link, BusyUntilFreeAt) {
  sim::Simulation sim;
  Link link(sim, sim::gigabits_per_sec(1), 0);
  Sink sink;
  link.connect(&sink, 0);
  Packet p;
  p.payload = 1460;
  link.transmit(p);
  EXPECT_TRUE(link.busy());
  sim.run();
  EXPECT_FALSE(link.busy());
}

TEST(Link, CountsTraffic) {
  sim::Simulation sim;
  Link link(sim, sim::gigabits_per_sec(10), 0);
  Sink sink;
  link.connect(&sink, 0);
  Packet p;
  p.payload = 100;
  link.transmit(p);
  sim.run();
  link.transmit(p);
  sim.run();
  EXPECT_EQ(link.packets_sent(), sim::packets(2));
  EXPECT_EQ(link.bytes_sent(), sim::bytes(2 * p.wire_size()));
}

TEST(Link, BackToBackPacketsKeepLineRate) {
  sim::Simulation sim;
  Link link(sim, sim::gigabits_per_sec(10), 0);
  Sink sink;
  link.connect(&sink, 0);
  Packet p;
  p.payload = 1460;
  sim::Time t = 0;
  for (int i = 0; i < 10; ++i) {
    sim.run_until(t);
    t = link.transmit(p);
  }
  sim.run();
  EXPECT_EQ(sink.packets.size(), 10u);
  // Average per-packet time is exactly 1230.4 ns thanks to the carry.
  EXPECT_EQ(sim.now(), 12304);
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST(Topology, StarShape) {
  const TopologyGraph g = make_star(4, LinkSpec{});
  EXPECT_EQ(g.num_hosts(), 4);
  EXPECT_EQ(g.num_switches(), 1);
  const int sw = g.switch_node(0);
  EXPECT_EQ(g.num_ports(sw), 4);
  for (int h = 0; h < 4; ++h) {
    const PortRef peer = g.peer(g.host_node(h), 0);
    EXPECT_EQ(peer.node, sw);
    EXPECT_EQ(peer.port, h);
    EXPECT_EQ(g.peer(sw, h).node, g.host_node(h));
  }
}

TEST(Topology, FatTreeCounts) {
  const TopologyGraph g = make_fat_tree(4, LinkSpec{});
  EXPECT_EQ(g.num_hosts(), 16);
  EXPECT_EQ(g.num_switches(), 20);
  EXPECT_EQ(g.num_nodes(), 36);
}

TEST(Topology, FatTreeAllDataPortsWired) {
  const TopologyGraph g = make_fat_tree(4, LinkSpec{});
  for (int sw : g.switches()) {
    for (int p = 0; p < g.num_ports(sw); ++p) {
      EXPECT_TRUE(g.wired(sw, p)) << "switch node " << sw << " port " << p;
    }
  }
  for (int h : g.hosts()) EXPECT_TRUE(g.wired(h, 0));
}

TEST(Topology, FatTreeWiringIsSymmetric) {
  const TopologyGraph g = make_fat_tree(4, LinkSpec{});
  for (int n = 0; n < g.num_nodes(); ++n) {
    for (int p = 0; p < g.num_ports(n); ++p) {
      if (!g.wired(n, p)) continue;
      const PortRef peer = g.peer(n, p);
      const PortRef back = g.peer(peer.node, peer.port);
      EXPECT_EQ(back.node, n);
      EXPECT_EQ(back.port, p);
    }
  }
}

TEST(Topology, FatTreeHostPlacement) {
  const TopologyGraph g = make_fat_tree(4, LinkSpec{});
  const TopologyShape& sh = g.shape();
  for (int h = 0; h < g.num_hosts(); ++h) {
    const PortRef up = g.peer(g.host_node(h), 0);
    const int expected_edge = g.switch_node(
        sh.edge_switch_index(sh.pod_of_host(h), sh.edge_of_host(h)));
    EXPECT_EQ(up.node, expected_edge);
    EXPECT_EQ(up.port, sh.leaf_of_host(h));
  }
}

TEST(Topology, FatTreeCoreReachesEveryPod) {
  const TopologyGraph g = make_fat_tree(4, LinkSpec{});
  const TopologyShape& sh = g.shape();
  for (int c = 0; c < sh.num_core; ++c) {
    const int core = g.switch_node(sh.core_switch_index(c));
    for (int p = 0; p < sh.num_pods; ++p) {
      const PortRef peer = g.peer(core, p);
      const int expected_agg =
          g.switch_node(sh.agg_switch_index(p, sh.agg_for_core(c)));
      EXPECT_EQ(peer.node, expected_agg);
      EXPECT_EQ(peer.port, sh.agg_port_for_core(c));
    }
  }
}

TEST(Topology, ShapeDescribesLegacyFatTree) {
  // k=4 must advertise exactly the paper's 16-host testbed structure.
  const TopologyGraph g = make_fat_tree(4, LinkSpec{});
  const TopologyShape& sh = g.shape();
  EXPECT_EQ(sh.kind, FabricKind::kFatTree);
  EXPECT_EQ(sh.k, 4);
  EXPECT_EQ(sh.num_hosts, 16);
  EXPECT_EQ(sh.num_switches, 20);
  EXPECT_EQ(sh.num_pods, 4);
  EXPECT_EQ(sh.edge_per_pod, 2);
  EXPECT_EQ(sh.agg_per_pod, 2);
  EXPECT_EQ(sh.num_core, 4);
  EXPECT_EQ(sh.provisioned_trees, 4);
  EXPECT_EQ(sh.max_trees(), 4);
  // Spot-check the index helpers against the historical dense layout.
  EXPECT_EQ(sh.pod_of_host(13), 3);
  EXPECT_EQ(sh.edge_of_host(13), 0);
  EXPECT_EQ(sh.edge_switch_index(3, 1), 7);
  EXPECT_EQ(sh.agg_switch_index(3, 1), 15);
  EXPECT_EQ(sh.core_switch_index(2), 18);
  EXPECT_EQ(sh.agg_for_core(2), 1);
  EXPECT_EQ(sh.agg_port_for_core(2), 2);
}

TEST(Topology, ParametricFatTreeCounts) {
  for (int k : {4, 6, 8}) {
    const TopologyGraph g = make_fat_tree(k, LinkSpec{});
    EXPECT_EQ(g.num_hosts(), k * k * k / 4);
    EXPECT_EQ(g.num_switches(), k * k + k * k / 4);
    for (int sw : g.switches()) {
      for (int p = 0; p < g.num_ports(sw); ++p) {
        ASSERT_TRUE(g.wired(sw, p)) << "k=" << k << " node " << sw;
      }
    }
  }
}

TEST(Topology, FatTreeRejectsBadRadix) {
  EXPECT_THROW(make_fat_tree(3, LinkSpec{}), std::invalid_argument);
  EXPECT_THROW(make_fat_tree(0, LinkSpec{}), std::invalid_argument);
  EXPECT_THROW(make_fat_tree(-4, LinkSpec{}), std::invalid_argument);
}

TEST(Topology, FatTreeRejectsUnaddressableScale) {
  // k=64 would be 65,536 hosts — past the 10.0.x.y plan, so the builder
  // must refuse rather than alias IPs.
  EXPECT_THROW(make_fat_tree(64, LinkSpec{}), std::length_error);
  EXPECT_THROW(make_leaf_spine(300, 4, 250, LinkSpec{}), std::length_error);
  // The paper's §9.1 64-port datapoint (k=62, 59'582 hosts) still builds.
  EXPECT_NO_THROW(make_fat_tree(62, LinkSpec{}));
}

TEST(Topology, LeafSpineWiring) {
  const TopologyGraph g = make_leaf_spine(3, 2, 4, LinkSpec{});
  const TopologyShape& sh = g.shape();
  EXPECT_EQ(sh.kind, FabricKind::kLeafSpine);
  EXPECT_EQ(g.num_hosts(), 12);
  EXPECT_EQ(g.num_switches(), 5);
  EXPECT_EQ(sh.max_trees(), 2);
  for (int h = 0; h < g.num_hosts(); ++h) {
    const PortRef up = g.peer(g.host_node(h), 0);
    EXPECT_EQ(up.node,
              g.switch_node(sh.leaf_switch_index(sh.leaf_of_ls_host(h))));
    EXPECT_EQ(up.port, sh.leaf_port_of_ls_host(h));
  }
  for (int l = 0; l < sh.num_leaves; ++l) {
    for (int s = 0; s < sh.num_spines; ++s) {
      const PortRef peer =
          g.peer(g.switch_node(sh.leaf_switch_index(l)),
                 sh.leaf_port_for_spine(s));
      EXPECT_EQ(peer.node, g.switch_node(sh.spine_switch_index(s)));
      EXPECT_EQ(peer.port, l);
    }
  }
}

TEST(Topology, HandWiredGraphHasUnknownShape) {
  TopologyGraph g;
  g.add_host();
  g.add_switch(1);
  EXPECT_EQ(g.shape().kind, FabricKind::kUnknown);
  EXPECT_EQ(g.shape().max_trees(), 0);
}

TEST(Topology, LinkSpecStored) {
  LinkSpec spec;
  spec.rate = sim::gigabits_per_sec(1);
  spec.propagation = sim::microseconds(3);
  const TopologyGraph g = make_star(2, spec);
  const auto& got = g.link_spec(g.host_node(0), 0);
  EXPECT_EQ(got.rate, spec.rate);
  EXPECT_EQ(got.propagation, spec.propagation);
}

TEST(Topology, HostAndSwitchIndices) {
  const TopologyGraph g = make_fat_tree(4, LinkSpec{});
  for (int h = 0; h < g.num_hosts(); ++h) {
    EXPECT_EQ(g.host_index(g.host_node(h)), h);
    EXPECT_TRUE(g.is_host(g.host_node(h)));
  }
  for (int s = 0; s < g.num_switches(); ++s) {
    EXPECT_EQ(g.switch_index(g.switch_node(s)), s);
    EXPECT_TRUE(g.is_switch(g.switch_node(s)));
  }
}

}  // namespace
}  // namespace planck::net
