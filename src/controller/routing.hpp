#pragma once

#include <cstdint>
#include <optional>

#include "net/addresses.hpp"
#include "net/route_info.hpp"
#include "net/topology.hpp"
#include "switchsim/rule_table.hpp"

namespace planck::controller {

/// Multipath route computation (§6.2): PAST-style per-address spanning
/// trees. On a k-ary fat-tree each core switch defines one spanning tree,
/// giving up to (k/2)^2 pre-installable paths per destination (the base
/// tree plus shadow-MAC trees, capped by the fabric's provisioned-trees
/// knob). On a leaf-spine each spine defines a tree; on a star topology
/// there is a single trivial tree.
///
/// Every answer is computed on demand in closed form from the graph's
/// TopologyShape: Routing holds no per-host or per-pair state, and it is
/// immutable after construction, so collectors and switches on data
/// partitions may query it concurrently.
class Routing {
 public:
  /// The graph must carry a TopologyShape from one of the net::make_*
  /// builders (fat-tree, leaf-spine, or star); hand-wired graphs are
  /// rejected.
  explicit Routing(const net::TopologyGraph& graph);

  /// Tree indices are *relative to the destination*: tree 0 (the base
  /// MAC's tree) maps to a pseudo-random core per destination, spreading
  /// base routes the way PAST/ECMP hashing does (§6.2); trees 1..T-1 are
  /// the shadow-MAC alternates on the remaining cores (spines, for
  /// leaf-spine). The absolute core used by (dst, tree) is
  /// (base_core(dst, num_cores) + tree) % num_cores.
  static int base_core(int dst_host, int num_cores) {
    // splitmix64-style mix so consecutive hosts land on unrelated cores.
    std::uint64_t z = static_cast<std::uint64_t>(dst_host) +
                      0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<int>((z ^ (z >> 31)) %
                            static_cast<std::uint64_t>(num_cores));
  }

  int num_trees() const { return num_trees_; }
  int num_hosts() const { return num_hosts_; }

  /// The path from src to dst (host indices) on `tree`. Paths between a
  /// host and itself are empty.
  net::RoutePath path(int src_host, int dst_host, int tree) const;

  /// The ports a frame from `src_mac` (a host's base MAC) to `dst_mac` (a
  /// base or shadow MAC, which names the destination and the tree) uses at
  /// `switch_node` (§3.2.1). {-1, -1} when the path does not cross that
  /// switch or either MAC names no routed host.
  net::SwitchPorts ports_at(int switch_node, net::MacAddress src_mac,
                            net::MacAddress dst_mac) const;

  /// The L2 rule the PAST program holds for `dst_mac` (a base or shadow
  /// MAC) at `switch_node` (§6.2): the out port toward the destination on
  /// that MAC's tree, plus the rewrite to the base MAC at a shadow tree's
  /// egress switch. Empty when no other host's path to that destination
  /// on that tree crosses the switch, or the MAC names no routed host and
  /// tree.
  std::optional<switchsim::RuleActions> mac_rule_at(
      int switch_node, net::MacAddress dst_mac) const;

  /// mac_rule_at bound to one switch, whose tier, pod and index are
  /// resolved once: the switch's forwarding oracle. It reads only this
  /// immutable Routing, which must outlive it.
  switchsim::MacOracle mac_oracle(int switch_node) const;

  const net::TopologyGraph& graph() const { return graph_; }

 private:
  /// Where one switch sits in its fabric, resolved once per switch.
  struct Site {
    enum class Tier : std::uint8_t {
      kNone, kEdge, kAgg, kCore, kLeaf, kSpine, kStar
    };
    Tier tier = Tier::kNone;
    /// Hosts [first_host, first_host + host_span) hang off an edge, leaf
    /// or star switch; for an aggregation switch they are its pod's hosts.
    int first_host = 0;
    int host_span = 0;
    /// Aggregation switch: the first core it reaches. Core or spine: its
    /// index.
    int root = -1;
  };

  Site site_of(int switch_node) const;
  std::optional<switchsim::RuleActions> mac_rule(const Site& site,
                                                 net::MacAddress dst_mac) const;
  /// The routed destination host and tree a base or shadow MAC names;
  /// false for any other MAC.
  bool decode_mac(net::MacAddress mac, int* dst, int* tree) const;

  net::RoutePath compute_fat_tree_path(int src, int dst, int tree) const;
  net::RoutePath compute_leaf_spine_path(int src, int dst, int tree) const;
  net::RoutePath compute_star_path(int src, int dst) const;

  const net::TopologyGraph& graph_;
  int num_trees_ = 1;
  int num_hosts_ = 0;
};

}  // namespace planck::controller
