// Tests for multipath routing (§6.2): PAST spanning trees on the fat-tree,
// shadow-tree alternates, path validity against the physical wiring,
// destination-consistency (a tree is a tree), path diversity, the
// per-switch port oracle (ports_at) and the MAC oracle (mac_oracle)
// against the tables they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "controller/routing.hpp"
#include "net/addresses.hpp"
#include "net/topology.hpp"

namespace planck::controller {
namespace {

using net::TopologyGraph;

struct Fixture {
  Fixture() : graph(net::make_fat_tree(4, net::LinkSpec{})), routing(graph) {}
  TopologyGraph graph;
  Routing routing;
};

TEST(Routing, FatTreeHasFourTrees) {
  Fixture f;
  EXPECT_EQ(f.routing.num_trees(), 4);
  EXPECT_EQ(f.routing.num_hosts(), 16);
}

TEST(Routing, StarHasOneTrivialTree) {
  const TopologyGraph g = net::make_star(8, net::LinkSpec{});
  Routing r(g);
  EXPECT_EQ(r.num_trees(), 1);
  const net::RoutePath& p = r.path(2, 5, 0);
  ASSERT_EQ(p.hops.size(), 1u);
  EXPECT_EQ(p.hops[0].in_port, 2);
  EXPECT_EQ(p.hops[0].out_port, 5);
}

TEST(Routing, SelfPathIsEmpty) {
  Fixture f;
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(f.routing.path(3, 3, t).hops.empty());
  }
}

TEST(Routing, UnsupportedGraphThrows) {
  TopologyGraph g;
  g.add_host();
  g.add_host();
  g.add_switch(2);
  g.add_switch(2);
  EXPECT_THROW(Routing r(g), std::invalid_argument);
}

TEST(Routing, PathHopLengthsByLocality) {
  Fixture f;
  // Same edge: 1 hop. Same pod, different edge: 3. Different pod: 5.
  EXPECT_EQ(f.routing.path(0, 1, 0).hops.size(), 1u);
  EXPECT_EQ(f.routing.path(0, 2, 0).hops.size(), 3u);
  EXPECT_EQ(f.routing.path(0, 4, 0).hops.size(), 5u);
}

/// Validates a path against the physical wiring: consecutive hops must be
/// joined by actual cables, the first hop reached from the source host,
/// and the last hop's output port wired to the destination host.
void check_path_physical(const TopologyGraph& g, const net::RoutePath& p) {
  ASSERT_FALSE(p.hops.empty());
  const int src_node = g.host_node(p.src_host);
  const int dst_node = g.host_node(p.dst_host);
  // Source uplink lands on the first hop at its in_port.
  const net::PortRef first = g.peer(src_node, 0);
  EXPECT_EQ(first.node, p.hops.front().switch_node);
  EXPECT_EQ(first.port, p.hops.front().in_port);
  // Chain.
  for (std::size_t i = 0; i + 1 < p.hops.size(); ++i) {
    const net::PortRef next =
        g.peer(p.hops[i].switch_node, p.hops[i].out_port);
    EXPECT_EQ(next.node, p.hops[i + 1].switch_node);
    EXPECT_EQ(next.port, p.hops[i + 1].in_port);
  }
  // Egress reaches the destination host.
  const net::PortRef last =
      g.peer(p.hops.back().switch_node, p.hops.back().out_port);
  EXPECT_EQ(last.node, dst_node);
}

/// The per-switch tables the controller once precomputed for its
/// collectors, rebuilt here only as the reference for Routing::ports_at:
/// every switch on the path of (base-MAC source, routing MAC) maps the
/// routing MAC to its out port and the MAC pair to its in port.
std::map<int, net::SwitchRouteView> reference_views(const Routing& routing) {
  std::map<int, net::SwitchRouteView> views;
  const int n = routing.num_hosts();
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      for (int t = 0; t < routing.num_trees(); ++t) {
        const net::MacAddress dst_mac = net::host_mac(d, t);
        const net::MacAddress src_mac = net::host_mac(s, 0);
        for (const net::PathHop& hop : routing.path(s, d, t).hops) {
          net::SwitchRouteView& view = views[hop.switch_node];
          view.out_port_by_dst[dst_mac] = hop.out_port;
          view.in_port_by_pair[net::MacPair{src_mac, dst_mac}] = hop.in_port;
        }
      }
    }
  }
  return views;
}

/// ports_at agrees with the reference tables at every switch, for every
/// base-MAC source and routing MAC, and answers {-1, -1} wherever the
/// tables held no entry for the MAC pair.
void check_ports_match_reference(const TopologyGraph& g,
                                 const Routing& routing) {
  const std::map<int, net::SwitchRouteView> views = reference_views(routing);
  const net::SwitchRouteView empty;
  const int n = routing.num_hosts();
  for (int sw : g.switches()) {
    const auto view_it = views.find(sw);
    const net::SwitchRouteView& view =
        view_it == views.end() ? empty : view_it->second;
    for (int s = 0; s < n; ++s) {
      const net::MacAddress src_mac = net::host_mac(s, 0);
      for (int d = 0; d < n; ++d) {
        for (int t = 0; t < routing.num_trees(); ++t) {
          const net::MacAddress dst_mac = net::host_mac(d, t);
          const auto it = view.in_port_by_pair.find({src_mac, dst_mac});
          const net::SwitchPorts want =
              it == view.in_port_by_pair.end()
                  ? net::SwitchPorts{}
                  : net::SwitchPorts{it->second, view.out_port(dst_mac)};
          const net::SwitchPorts got = routing.ports_at(sw, src_mac, dst_mac);
          ASSERT_TRUE(got == want)
              << "switch " << sw << " s=" << s << " d=" << d << " t=" << t
              << ": got {" << got.in << ", " << got.out << "}, want {"
              << want.in << ", " << want.out << "}";
        }
      }
    }
  }
}

TEST(Routing, AllPathsArePhysicallyValid) {
  Fixture f;
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s == d) continue;
      for (int t = 0; t < 4; ++t) {
        check_path_physical(f.graph, f.routing.path(s, d, t));
      }
    }
  }
}

TEST(Routing, TreesAreDestinationConsistent) {
  // PAST property: forwarding is a function of (switch, destination MAC)
  // alone — every source's path to (d, t) must use the same output port at
  // any shared switch. This is what lets the controller install one MAC
  // rule per (d, t) per switch (§4.1).
  Fixture f;
  for (int d = 0; d < 16; ++d) {
    for (int t = 0; t < 4; ++t) {
      std::map<int, int> out_port_at_switch;
      for (int s = 0; s < 16; ++s) {
        if (s == d) continue;
        for (const net::PathHop& hop : f.routing.path(s, d, t).hops) {
          const auto [it, inserted] =
              out_port_at_switch.emplace(hop.switch_node, hop.out_port);
          EXPECT_EQ(it->second, hop.out_port)
              << "switch " << hop.switch_node << " d=" << d << " t=" << t;
        }
      }
    }
  }
}

TEST(Routing, InterPodTreesUseDistinctCores) {
  Fixture f;
  const net::TopologyShape& shape = f.graph.shape();
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (shape.pod_of_host(s) == shape.pod_of_host(d)) continue;
      std::set<int> cores;
      for (int t = 0; t < 4; ++t) {
        const net::RoutePath& p = f.routing.path(s, d, t);
        ASSERT_EQ(p.hops.size(), 5u);
        cores.insert(p.hops[2].switch_node);
      }
      EXPECT_EQ(cores.size(), 4u) << "s=" << s << " d=" << d;
    }
  }
}

TEST(Routing, AdjacentTreePairsAreLinkDisjointAcrossAggGroups) {
  // In a k=4 fat-tree, trees through agg 0 (cores 0,1) and agg 1
  // (cores 2,3) share no links for a given src/dst pair. Relative trees
  // t and t+2 always land in different agg groups.
  Fixture f;
  for (int s : {0, 3, 7, 12}) {
    for (int d : {4, 9, 15}) {
      if (s == d ||
          f.graph.shape().pod_of_host(s) == f.graph.shape().pod_of_host(d)) {
        continue;
      }
      for (int t = 0; t < 2; ++t) {
        // A hop's directed link is its (switch, out port).
        std::set<std::pair<int, int>> links_a;
        for (const net::PathHop& hop : f.routing.path(s, d, t).hops) {
          links_a.insert({hop.switch_node, hop.out_port});
        }
        int shared = 0;
        for (const net::PathHop& hop : f.routing.path(s, d, t + 2).hops) {
          shared += static_cast<int>(
              links_a.count({hop.switch_node, hop.out_port}));
        }
        // Only the final egress-switch -> host link can coincide.
        EXPECT_LE(shared, 1) << "s=" << s << " d=" << d << " t=" << t;
      }
    }
  }
}

TEST(Routing, BaseCoreSpreadsDestinations) {
  // PAST hashing: the 16 destinations should not all share one core.
  std::set<int> cores;
  for (int d = 0; d < 16; ++d) cores.insert(Routing::base_core(d, 4));
  EXPECT_EQ(cores.size(), 4u);
}

TEST(Routing, SamePodPathsAvoidCore) {
  Fixture f;
  for (int t = 0; t < 4; ++t) {
    const net::RoutePath& p = f.routing.path(0, 2, t);
    ASSERT_EQ(p.hops.size(), 3u);
    // Middle hop is an aggregation switch, never a core.
    const int agg = p.hops[1].switch_node;
    const int idx = f.graph.switch_index(agg);
    EXPECT_GE(idx, 8);
    EXPECT_LT(idx, 16);
  }
}

TEST(Routing, PathMetadataFilled) {
  Fixture f;
  const net::RoutePath& p = f.routing.path(2, 9, 3);
  EXPECT_EQ(p.src_host, 2);
  EXPECT_EQ(p.dst_host, 9);
  EXPECT_EQ(p.tree, 3);
}

// Parameterized: every (src, dst) pair on every tree reaches exactly the
// destination and never loops.
class RoutingPairTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RoutingPairTest, NoLoopsOnAnyTree) {
  Fixture f;
  const int s = std::get<0>(GetParam());
  const int d = std::get<1>(GetParam());
  if (s == d) GTEST_SKIP();
  for (int t = 0; t < 4; ++t) {
    const net::RoutePath& p = f.routing.path(s, d, t);
    std::set<int> visited;
    for (const net::PathHop& hop : p.hops) {
      EXPECT_TRUE(visited.insert(hop.switch_node).second)
          << "loop at switch " << hop.switch_node;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, RoutingPairTest,
    ::testing::Combine(::testing::Values(0, 1, 5, 10, 15),
                       ::testing::Values(0, 2, 7, 8, 14)));

// ---------------------------------------------------------------------------
// Parametric fabrics: the same PAST properties must hold at every radix,
// not just the paper's k=4 testbed.
// ---------------------------------------------------------------------------

class FatTreeRadixTest : public ::testing::TestWithParam<int> {
 protected:
  FatTreeRadixTest()
      : graph(net::make_fat_tree(GetParam(), net::LinkSpec{})),
        routing(graph) {}
  TopologyGraph graph;
  Routing routing;
};

TEST_P(FatTreeRadixTest, ShapeAndTreeCount) {
  const int k = GetParam();
  const net::TopologyShape& sh = graph.shape();
  EXPECT_EQ(sh.kind, net::FabricKind::kFatTree);
  EXPECT_EQ(graph.num_hosts(), k * k * k / 4);
  EXPECT_EQ(graph.num_switches(), k * k + k * k / 4);
  EXPECT_EQ(routing.num_trees(),
            std::min(k * k / 4, net::kMaxProvisionedTrees));
}

TEST_P(FatTreeRadixTest, AllPathsReachDestinationWithoutLoops) {
  const int n = routing.num_hosts();
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      for (int t = 0; t < routing.num_trees(); ++t) {
        const net::RoutePath& p = routing.path(s, d, t);
        check_path_physical(graph, p);
        std::set<int> visited;
        for (const net::PathHop& hop : p.hops) {
          ASSERT_TRUE(visited.insert(hop.switch_node).second)
              << "loop at switch " << hop.switch_node << " k=" << GetParam()
              << " s=" << s << " d=" << d << " t=" << t;
        }
      }
    }
  }
}

TEST_P(FatTreeRadixTest, InterPodTreesUseDistinctCores) {
  const net::TopologyShape& sh = graph.shape();
  const int n = routing.num_hosts();
  // Sample sources; scan all destinations so every base_core is covered.
  for (int s = 0; s < n; s += 5) {
    for (int d = 0; d < n; ++d) {
      if (sh.pod_of_host(s) == sh.pod_of_host(d)) continue;
      std::set<int> cores;
      for (int t = 0; t < routing.num_trees(); ++t) {
        const net::RoutePath& p = routing.path(s, d, t);
        ASSERT_EQ(p.hops.size(), 5u);
        cores.insert(p.hops[2].switch_node);
      }
      EXPECT_EQ(cores.size(),
                static_cast<std::size_t>(routing.num_trees()))
          << "s=" << s << " d=" << d;
    }
  }
}

TEST_P(FatTreeRadixTest, TreesAreDestinationConsistent) {
  const int n = routing.num_hosts();
  for (int d = 0; d < n; d += 3) {
    for (int t = 0; t < routing.num_trees(); ++t) {
      std::map<int, int> out_port_at_switch;
      for (int s = 0; s < n; ++s) {
        if (s == d) continue;
        for (const net::PathHop& hop : routing.path(s, d, t).hops) {
          const auto [it, inserted] =
              out_port_at_switch.emplace(hop.switch_node, hop.out_port);
          ASSERT_EQ(it->second, hop.out_port)
              << "switch " << hop.switch_node << " d=" << d << " t=" << t;
        }
      }
    }
  }
}

TEST_P(FatTreeRadixTest, LinksOnPathMatchesGraphWiring) {
  // The directed link a hop feeds, (switch, out port), is a real cable.
  const int n = routing.num_hosts();
  for (int s = 0; s < n; s += 7) {
    for (int d = 0; d < n; d += 3) {
      if (s == d) continue;
      for (int t = 0; t < routing.num_trees(); ++t) {
        for (const net::PathHop& hop : routing.path(s, d, t).hops) {
          EXPECT_TRUE(graph.wired(hop.switch_node, hop.out_port));
        }
      }
    }
  }
}

TEST_P(FatTreeRadixTest, PortsAtMatchesReferenceTables) {
  check_ports_match_reference(graph, routing);
}

INSTANTIATE_TEST_SUITE_P(Radix, FatTreeRadixTest, ::testing::Values(4, 6, 8));

// ---------------------------------------------------------------------------
// Port oracle (ports_at) edge cases
// ---------------------------------------------------------------------------

TEST(RoutingPorts, StarMatchesReferenceTables) {
  const TopologyGraph g = net::make_star(8, net::LinkSpec{});
  const Routing r(g);
  check_ports_match_reference(g, r);
}

TEST(RoutingPorts, MissesAnswerUnknown) {
  Fixture f;
  const net::PathHop first = f.routing.path(0, 15, 1).hops.front();
  const int sw = first.switch_node;
  const net::MacAddress dst = net::host_mac(15, 1);
  const net::SwitchPorts none;
  ASSERT_EQ(f.routing.ports_at(sw, net::host_mac(0), dst),
            (net::SwitchPorts{first.in_port, first.out_port}));
  // Hosts send from their base MAC: a shadow or foreign source is unknown.
  EXPECT_EQ(f.routing.ports_at(sw, net::host_mac(0, 1), dst), none);
  EXPECT_EQ(f.routing.ports_at(sw, net::kMacNone, dst), none);
  EXPECT_EQ(f.routing.ports_at(sw, net::kMacBroadcast, dst), none);
  EXPECT_EQ(f.routing.ports_at(sw, net::host_mac(0), net::kMacBroadcast),
            none);
  // Addressable hosts past num_hosts(), as source or destination.
  EXPECT_EQ(f.routing.ports_at(sw, net::host_mac(16), dst), none);
  EXPECT_EQ(f.routing.ports_at(sw, net::host_mac(0), net::host_mac(16, 1)),
            none);
  // A valid shadow MAC for a tree past num_trees().
  EXPECT_EQ(f.routing.ports_at(sw, net::host_mac(0), net::host_mac(15, 4)),
            none);
  // A host's own MAC: the empty self path crosses no switch.
  EXPECT_EQ(f.routing.ports_at(sw, net::host_mac(0), net::host_mac(0)), none);
}

// ---------------------------------------------------------------------------
// MAC oracle (mac_oracle) against the MAC program it replaced
// ---------------------------------------------------------------------------

/// One switch's MAC program, keyed by routing MAC.
using MacProgram = std::map<net::MacAddress, switchsim::RuleActions>;

bool same_actions(const switchsim::RuleActions& a,
                  const switchsim::RuleActions& b) {
  return a.out_port == b.out_port && a.set_dst_mac == b.set_dst_mac;
}

/// The controller's former install loop, rebuilt here only as the
/// reference for Routing::mac_oracle: every switch on the path of every
/// (src, dst, tree) maps the routing MAC to the hop's out port, and a
/// shadow tree's egress switch restores the base MAC. `conflicts` counts
/// writes that disagree with an earlier write for the same (switch, MAC).
std::map<int, MacProgram> reference_mac_programs(const Routing& routing,
                                                 int* conflicts) {
  std::map<int, MacProgram> programs;
  const int n = routing.num_hosts();
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      for (int t = 0; t < routing.num_trees(); ++t) {
        const net::RoutePath p = routing.path(s, d, t);
        const net::MacAddress routing_mac = net::host_mac(d, t);
        for (std::size_t i = 0; i < p.hops.size(); ++i) {
          switchsim::RuleActions actions;
          actions.out_port = p.hops[i].out_port;
          if (t != 0 && i + 1 == p.hops.size()) {
            actions.set_dst_mac = net::host_mac(d, 0);
          }
          const auto [it, inserted] =
              programs[p.hops[i].switch_node].emplace(routing_mac, actions);
          if (!inserted && !same_actions(it->second, actions)) ++*conflicts;
        }
      }
    }
  }
  return programs;
}

std::string describe(const std::optional<switchsim::RuleActions>& rule) {
  if (!rule) return "none";
  std::string out = "{out " + std::to_string(rule->out_port.value_or(-1));
  if (rule->set_dst_mac) {
    out += ", set " + net::mac_to_string(*rule->set_dst_mac);
  }
  return out + "}";
}

/// Each switch's mac_oracle agrees with the reference for every routing MAC
/// one past the hosts and trees, and misses for the null, broadcast and a
/// foreign MAC.
void check_mac_rules_match_reference(const TopologyGraph& g,
                                     const Routing& routing) {
  int conflicts = 0;
  const std::map<int, MacProgram> programs =
      reference_mac_programs(routing, &conflicts);
  ASSERT_EQ(conflicts, 0) << "the install loop wrote two different rules "
                             "for one (switch, MAC)";
  std::vector<net::MacAddress> macs{net::kMacNone, net::kMacBroadcast,
                                    0x0a0b'0c0d'0e0fULL};
  for (int d = 0; d <= routing.num_hosts() + 1; ++d) {
    for (int t = 0; t <= routing.num_trees() + 1; ++t) {
      macs.push_back(net::host_mac(d, t));
    }
  }
  const MacProgram empty;
  for (int sw : g.switches()) {
    const auto prog_it = programs.find(sw);
    const MacProgram& program =
        prog_it == programs.end() ? empty : prog_it->second;
    const switchsim::MacOracle oracle = routing.mac_oracle(sw);
    for (const net::MacAddress mac : macs) {
      const auto it = program.find(mac);
      const std::optional<switchsim::RuleActions> want =
          it == program.end() ? std::nullopt
                              : std::optional<switchsim::RuleActions>(
                                    it->second);
      ASSERT_EQ(describe(oracle(mac)), describe(want))
          << "switch " << sw << " mac " << net::mac_to_string(mac);
    }
  }
  // Hosts carry no MAC program.
  EXPECT_FALSE(routing.mac_oracle(g.host_node(0))(net::host_mac(0)));
}

struct FabricCase {
  std::string name;
  std::function<TopologyGraph()> build;
};

void PrintTo(const FabricCase& fabric, std::ostream* os) { *os << fabric.name; }

class MacOracleTest : public ::testing::TestWithParam<FabricCase> {};

TEST_P(MacOracleTest, MatchesReferenceProgram) {
  const TopologyGraph g = GetParam().build();
  const Routing routing(g);
  check_mac_rules_match_reference(g, routing);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, MacOracleTest,
    ::testing::Values(
        FabricCase{"FatTree2",
                   [] { return net::make_fat_tree(2, net::LinkSpec{}); }},
        FabricCase{"FatTree4",
                   [] { return net::make_fat_tree(4, net::LinkSpec{}); }},
        FabricCase{"FatTree6",
                   [] { return net::make_fat_tree(6, net::LinkSpec{}); }},
        FabricCase{"FatTree8",
                   [] { return net::make_fat_tree(8, net::LinkSpec{}); }},
        // 25 cores but 16 trees: the address plane caps the trees below
        // the core count, as on fabric_build_k10's route plane.
        FabricCase{"FatTree10",
                   [] { return net::make_fat_tree(10, net::LinkSpec{}); }},
        FabricCase{"Star8", [] { return net::make_star(8, net::LinkSpec{}); }},
        FabricCase{"Star1",
                   [] { return net::make_star(1, net::LinkSpec{}); }}),
    [](const ::testing::TestParamInfo<FabricCase>& fabric) {
      return fabric.param.name;
    });

TEST(RoutingProvisioning, OneTreePerCoreUpToTheAddressPlaneCap) {
  // A fat-tree routes on one tree per core, as many as the shadow-MAC
  // strides encode: k=4's 4 cores, and 16 of k=8's 16 and k=10's 25.
  const struct {
    int k;
    int trees;
  } cases[] = {{4, 4}, {8, 16}, {10, 16}};
  for (const auto& [k, trees] : cases) {
    const TopologyGraph g = net::make_fat_tree(k, net::LinkSpec{});
    EXPECT_EQ(g.shape().provisioned_trees, trees) << "k=" << k;
    EXPECT_EQ(Routing(g).num_trees(), trees) << "k=" << k;
  }
  EXPECT_EQ(net::kMaxProvisionedTrees, 16);
}

}  // namespace
}  // namespace planck::controller
