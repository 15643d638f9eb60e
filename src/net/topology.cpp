#include "net/topology.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "net/addresses.hpp"

namespace planck::net {

int TopologyGraph::add_host() {
  NodeInfo info;
  info.kind = NodeKind::kHost;
  info.ports = 1;
  info.host_index = static_cast<int>(hosts_.size());
  info.peers.resize(1);
  info.specs.resize(1);
  nodes_.push_back(std::move(info));
  hosts_.push_back(num_nodes() - 1);
  return num_nodes() - 1;
}

int TopologyGraph::add_switch(int num_ports) {
  assert(num_ports > 0);
  NodeInfo info;
  info.kind = NodeKind::kSwitch;
  info.ports = num_ports;
  info.switch_index = static_cast<int>(switches_.size());
  info.peers.resize(static_cast<std::size_t>(num_ports));
  info.specs.resize(static_cast<std::size_t>(num_ports));
  nodes_.push_back(std::move(info));
  switches_.push_back(num_nodes() - 1);
  return num_nodes() - 1;
}

void TopologyGraph::connect(PortRef a, PortRef b, LinkSpec spec) {
  assert(a.node >= 0 && a.node < num_nodes());
  assert(b.node >= 0 && b.node < num_nodes());
  assert(a.port >= 0 && a.port < num_ports(a.node));
  assert(b.port >= 0 && b.port < num_ports(b.node));
  assert(!wired(a.node, a.port));
  assert(!wired(b.node, b.port));
  nodes_[a.node].peers[a.port] = b;
  nodes_[a.node].specs[a.port] = spec;
  nodes_[b.node].peers[b.port] = a;
  nodes_[b.node].specs[b.port] = spec;
}

namespace {

/// Resolve the tree-provisioning knob against what the fabric supports and
/// what the address plane can encode (shadow-MAC strides).
int resolve_provisioned_trees(int requested, int max_trees) {
  if (requested < 0) {
    throw std::invalid_argument("provisioned_trees must be >= 0");
  }
  const int cap = max_trees < kMaxProvisionedTrees ? max_trees
                                                   : kMaxProvisionedTrees;
  if (requested == 0 || requested > cap) return cap;
  return requested;
}

void check_addressable(long long hosts, const char* what) {
  if (hosts > kMaxAddressableHosts) {
    throw std::length_error(
        std::string(what) + " needs " + std::to_string(hosts) +
        " hosts but the 10.0.x.y address plan caps at " +
        std::to_string(kMaxAddressableHosts));
  }
}

}  // namespace

TopologyGraph make_fat_tree(int k, const LinkSpec& spec,
                            int provisioned_trees) {
  return make_fat_tree(k, spec, spec, provisioned_trees);
}

TopologyGraph make_fat_tree(int k, const LinkSpec& host_spec,
                            const LinkSpec& fabric_spec,
                            int provisioned_trees) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument("fat-tree radix k must be even and >= 2");
  }
  const int half = k / 2;
  const int num_pods = k;
  const int num_core = half * half;
  const long long num_hosts_ll =
      static_cast<long long>(num_pods) * half * half;
  check_addressable(num_hosts_ll, "k-ary fat-tree");
  const int num_hosts = static_cast<int>(num_hosts_ll);

  TopologyGraph g;

  std::vector<int> hosts(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) hosts[h] = g.add_host();

  // Dense switch indices, in add order: edges (pod-major), aggs
  // (pod-major), cores — the same order the 16-host builder used, so the
  // k=4 instance is wired (and simulated) byte-identically.
  std::vector<std::vector<int>> edges(static_cast<std::size_t>(num_pods));
  std::vector<std::vector<int>> aggs(static_cast<std::size_t>(num_pods));
  std::vector<int> cores(static_cast<std::size_t>(num_core));
  for (int p = 0; p < num_pods; ++p) {
    edges[p].resize(static_cast<std::size_t>(half));
    for (int e = 0; e < half; ++e) edges[p][e] = g.add_switch(k);
  }
  for (int p = 0; p < num_pods; ++p) {
    aggs[p].resize(static_cast<std::size_t>(half));
    for (int a = 0; a < half; ++a) aggs[p][a] = g.add_switch(k);
  }
  for (int c = 0; c < num_core; ++c) cores[c] = g.add_switch(num_pods);

  TopologyShape shape;
  shape.kind = FabricKind::kFatTree;
  shape.num_hosts = num_hosts;
  shape.num_switches = g.num_switches();
  shape.k = k;
  shape.num_pods = num_pods;
  shape.edge_per_pod = half;
  shape.agg_per_pod = half;
  shape.hosts_per_edge = half;
  shape.num_core = num_core;
  shape.provisioned_trees =
      resolve_provisioned_trees(provisioned_trees, shape.max_trees());

  // Hosts to edge switches: edge ports 0..k/2-1 face down.
  for (int h = 0; h < num_hosts; ++h) {
    const int p = shape.pod_of_host(h);
    const int e = shape.edge_of_host(h);
    const int leaf = shape.leaf_of_host(h);
    g.connect({hosts[h], 0}, {edges[p][e], leaf}, host_spec);
  }
  // Edge to agg: edge port k/2+a to agg a port e.
  for (int p = 0; p < num_pods; ++p) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        g.connect({edges[p][e], half + a}, {aggs[p][a], e}, fabric_spec);
      }
    }
  }
  // Agg to core: agg a port k/2+j to core (a*(k/2) + j) port p.
  for (int p = 0; p < num_pods; ++p) {
    for (int a = 0; a < half; ++a) {
      for (int j = 0; j < half; ++j) {
        g.connect({aggs[p][a], half + j}, {cores[a * half + j], p},
                  fabric_spec);
      }
    }
  }

  g.set_shape(shape);
  return g;
}

TopologyGraph make_leaf_spine(int leaves, int spines, int hosts_per_leaf,
                              const LinkSpec& spec, int provisioned_trees) {
  return make_leaf_spine(leaves, spines, hosts_per_leaf, spec, spec,
                         provisioned_trees);
}

TopologyGraph make_leaf_spine(int leaves, int spines, int hosts_per_leaf,
                              const LinkSpec& host_spec,
                              const LinkSpec& fabric_spec,
                              int provisioned_trees) {
  if (leaves < 1 || spines < 1 || hosts_per_leaf < 1) {
    throw std::invalid_argument(
        "leaf-spine needs >= 1 leaf, spine, and host per leaf");
  }
  const long long num_hosts_ll =
      static_cast<long long>(leaves) * hosts_per_leaf;
  check_addressable(num_hosts_ll, "leaf-spine");
  const int num_hosts = static_cast<int>(num_hosts_ll);

  TopologyGraph g;
  std::vector<int> hosts(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) hosts[h] = g.add_host();

  std::vector<int> leaf_sw(static_cast<std::size_t>(leaves));
  std::vector<int> spine_sw(static_cast<std::size_t>(spines));
  for (int l = 0; l < leaves; ++l) {
    leaf_sw[l] = g.add_switch(hosts_per_leaf + spines);
  }
  for (int s = 0; s < spines; ++s) spine_sw[s] = g.add_switch(leaves);

  TopologyShape shape;
  shape.kind = FabricKind::kLeafSpine;
  shape.num_hosts = num_hosts;
  shape.num_switches = g.num_switches();
  shape.num_leaves = leaves;
  shape.num_spines = spines;
  shape.hosts_per_leaf = hosts_per_leaf;
  shape.provisioned_trees =
      resolve_provisioned_trees(provisioned_trees, shape.max_trees());

  for (int h = 0; h < num_hosts; ++h) {
    g.connect({hosts[h], 0},
              {leaf_sw[shape.leaf_of_ls_host(h)],
               shape.leaf_port_of_ls_host(h)},
              host_spec);
  }
  for (int l = 0; l < leaves; ++l) {
    for (int s = 0; s < spines; ++s) {
      g.connect({leaf_sw[l], hosts_per_leaf + s}, {spine_sw[s], l},
                fabric_spec);
    }
  }

  g.set_shape(shape);
  return g;
}

TopologyGraph make_star(int num_hosts, const LinkSpec& spec) {
  check_addressable(num_hosts, "star");
  TopologyGraph g;
  std::vector<int> hosts;
  hosts.reserve(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) hosts.push_back(g.add_host());
  const int sw = g.add_switch(num_hosts);
  for (int h = 0; h < num_hosts; ++h) {
    g.connect({hosts[h], 0}, {sw, h}, spec);
  }
  TopologyShape shape;
  shape.kind = FabricKind::kStar;
  shape.num_hosts = num_hosts;
  shape.num_switches = 1;
  shape.provisioned_trees = 1;
  g.set_shape(shape);
  return g;
}

}  // namespace planck::net
