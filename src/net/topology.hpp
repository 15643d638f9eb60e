#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "sim/units.hpp"

namespace planck::net {

/// Node kind in the abstract topology graph.
enum class NodeKind : std::uint8_t { kHost, kSwitch };

/// A (node, port) endpoint.
struct PortRef {
  int node = -1;
  int port = -1;

  friend bool operator==(const PortRef&, const PortRef&) = default;
  bool valid() const { return node >= 0; }
};

/// Physical properties of a cable.
struct LinkSpec {
  sim::BitsPerSec rate = sim::gigabits_per_sec(10);
  sim::Duration propagation = sim::microseconds(1);
};

/// What family of fabric a TopologyGraph was built as. Hand-wired graphs
/// stay kUnknown; routing only understands the named fabrics.
enum class FabricKind : std::uint8_t { kUnknown, kFatTree, kStar };

/// Structural facts about a built fabric: counts, tier geometry, and the
/// index/coordinate conventions the builder used. This is the descriptor
/// every consumer (routing, testbed, TE, benches, tests) reads instead of
/// hard-coded fabric constants — the graph carries its own shape.
struct TopologyShape {
  FabricKind kind = FabricKind::kUnknown;
  int num_hosts = 0;
  int num_switches = 0;
  /// How many spanning trees routing provisions for this fabric: tree 0 is
  /// the base tree, trees 1..provisioned_trees-1 are shadow trees. A
  /// fat-tree provisions one per core, at most addresses'
  /// kMaxProvisionedTrees; a star provisions 1.
  int provisioned_trees = 1;

  // --- fat-tree geometry (kind == kFatTree) ---
  int k = 0;              ///< switch radix; pods = k, cores = (k/2)^2
  int num_pods = 0;
  int edge_per_pod = 0;   ///< k/2
  int agg_per_pod = 0;    ///< k/2
  int hosts_per_edge = 0; ///< k/2
  int num_core = 0;       ///< (k/2)^2

  // Fat-tree coordinates. Host ids are dense, pod-major:
  //   host = pod*(k/2)^2 + edge*(k/2) + leaf.
  int hosts_per_pod() const { return hosts_per_edge * edge_per_pod; }
  int pod_of_host(int host) const { return host / hosts_per_pod(); }
  int edge_of_host(int host) const {
    return (host % hosts_per_pod()) / hosts_per_edge;
  }
  /// Down-facing edge-switch port (and position under the edge) of a host.
  int leaf_of_host(int host) const { return host % hosts_per_edge; }

  // Fat-tree switch indices (dense, in add order): edges first (pod-major),
  // then aggs (pod-major), then cores.
  int edge_switch_index(int pod, int e) const {
    return pod * edge_per_pod + e;
  }
  int agg_switch_index(int pod, int a) const {
    return num_pods * edge_per_pod + pod * agg_per_pod + a;
  }
  int core_switch_index(int c) const {
    return num_pods * (edge_per_pod + agg_per_pod) + c;
  }
  /// Aggregation switch index within a pod that reaches core c.
  int agg_for_core(int c) const { return c / (k / 2); }
  /// Agg uplink port that reaches core c.
  int agg_port_for_core(int c) const { return k / 2 + (c % (k / 2)); }
  /// Edge uplink port that reaches agg a of the pod.
  int edge_port_for_agg(int a) const { return hosts_per_edge + a; }
};

/// Abstract topology: hosts and switches connected by bidirectional cables.
/// This is the controller's and routing code's view of the network; the
/// testbed assembler instantiates concrete Switch/Host objects from it.
/// Monitor ports are *not* part of this graph — they carry no routed
/// traffic and are attached when the testbed is built.
class TopologyGraph {
 public:
  /// Adds a host (hosts always have exactly one port, port 0).
  /// Host ids are dense: the i-th call returns a node whose host index is
  /// the number of hosts added before it.
  int add_host();

  /// Adds a switch with `num_ports` data ports.
  int add_switch(int num_ports);

  /// Connects a.port <-> b.port with the given cable. Both ports must be
  /// unused.
  void connect(PortRef a, PortRef b, LinkSpec spec);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  NodeKind kind(int node) const { return nodes_[node].kind; }
  bool is_switch(int node) const { return kind(node) == NodeKind::kSwitch; }
  bool is_host(int node) const { return kind(node) == NodeKind::kHost; }
  int num_ports(int node) const { return nodes_[node].ports; }

  /// Host index (0-based among hosts) of a host node; -1 for switches.
  int host_index(int node) const { return nodes_[node].host_index; }
  /// Node id of the i-th host.
  int host_node(int host_index) const { return hosts_[host_index]; }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }

  /// Switch index (0-based among switches) of a switch node; -1 for hosts.
  int switch_index(int node) const { return nodes_[node].switch_index; }
  int switch_node(int switch_index) const { return switches_[switch_index]; }
  int num_switches() const { return static_cast<int>(switches_.size()); }

  /// The far end of (node, port); invalid PortRef if unwired.
  PortRef peer(int node, int port) const {
    return nodes_[node].peers[port];
  }
  bool wired(int node, int port) const { return peer(node, port).valid(); }

  /// Cable properties of the link at (node, port). Precondition: wired.
  const LinkSpec& link_spec(int node, int port) const {
    assert(wired(node, port));
    return nodes_[node].specs[port];
  }

  const std::vector<int>& hosts() const { return hosts_; }
  const std::vector<int>& switches() const { return switches_; }

  /// Structural descriptor set by the builder; kUnknown for hand-wired
  /// graphs.
  const TopologyShape& shape() const { return shape_; }
  void set_shape(const TopologyShape& shape) { shape_ = shape; }

 private:
  struct NodeInfo {
    NodeKind kind;
    int ports;
    int host_index = -1;
    int switch_index = -1;
    std::vector<PortRef> peers;
    std::vector<LinkSpec> specs;
  };

  std::vector<NodeInfo> nodes_;
  std::vector<int> hosts_;
  std::vector<int> switches_;
  TopologyShape shape_;
};

/// 3-tier k-ary fat-tree (k even, >= 2): k pods of {k/2 edge, k/2 agg}
/// switches plus (k/2)^2 cores, k^3/4 hosts. Port conventions generalize
/// the paper's k=4 testbed:
///   edge:  0..k/2-1 down to hosts, k/2..k-1 up to aggs (port k/2+a -> agg a)
///   agg:   0..k/2-1 down to edges (port e -> edge e), k/2..k-1 up to core
///          (agg a reaches cores a*(k/2)..a*(k/2)+k/2-1)
///   core:  port p connects to pod p
/// Host ids: pod*(k/2)^2 + edge*(k/2) + leaf.
/// Routing gets min((k/2)^2, kMaxProvisionedTrees) trees: one per core,
/// as many as the shadow-MAC strides encode.
/// Throws std::invalid_argument for bad k and std::length_error when the
/// host count exceeds kMaxAddressableHosts.
TopologyGraph make_fat_tree(int k, const LinkSpec& spec);

/// Same, with distinct cables for host-facing links (host_spec) and the
/// switch-to-switch fabric (fabric_spec).
TopologyGraph make_fat_tree(int k, const LinkSpec& host_spec,
                            const LinkSpec& fabric_spec);

/// Non-blocking "Optimal" topology (§7.1): all hosts on one big switch.
TopologyGraph make_star(int num_hosts, const LinkSpec& spec);

}  // namespace planck::net
