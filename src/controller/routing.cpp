#include "controller/routing.hpp"

#include <cassert>
#include <stdexcept>

namespace planck::controller {

Routing::Routing(const net::TopologyGraph& graph)
    : graph_(graph), num_hosts_(graph.num_hosts()) {
  const net::TopologyShape& shape = graph.shape();
  switch (shape.kind) {
    case net::FabricKind::kFatTree:
    case net::FabricKind::kLeafSpine:
      num_trees_ = shape.provisioned_trees;
      break;
    case net::FabricKind::kStar:
      num_trees_ = 1;
      break;
    case net::FabricKind::kUnknown:
      throw std::invalid_argument(
          "Routing needs a graph built by net::make_fat_tree, "
          "net::make_leaf_spine, or net::make_star");
  }
}

net::RoutePath Routing::path(int src_host, int dst_host, int tree) const {
  assert(src_host >= 0 && src_host < num_hosts_);
  assert(dst_host >= 0 && dst_host < num_hosts_);
  assert(tree >= 0 && tree < num_trees_);
  if (src_host == dst_host) return net::RoutePath{src_host, dst_host, tree, {}};
  switch (graph_.shape().kind) {
    case net::FabricKind::kFatTree:
      return compute_fat_tree_path(src_host, dst_host, tree);
    case net::FabricKind::kLeafSpine:
      return compute_leaf_spine_path(src_host, dst_host, tree);
    default:
      return compute_star_path(src_host, dst_host);
  }
}

net::SwitchPorts Routing::ports_at(int switch_node, net::MacAddress src_mac,
                                   net::MacAddress dst_mac) const {
  // Hosts send from their base MAC; the destination MAC alone names the
  // tree (a shadow MAC encodes tree >= 1).
  int dst = -1;
  int tree = 0;
  if (net::is_shadow_mac(src_mac) || !decode_mac(dst_mac, &dst, &tree)) {
    return {};
  }
  const int src = net::host_id_of_mac(src_mac);
  if (src < 0 || src >= num_hosts_) return {};
  const net::RoutePath p = path(src, dst, tree);
  for (const net::PathHop& hop : p.hops) {
    if (hop.switch_node == switch_node) return {hop.in_port, hop.out_port};
  }
  return {};
}

bool Routing::decode_mac(net::MacAddress mac, int* dst, int* tree) const {
  *tree = 0;
  if (!net::is_shadow_mac(mac, tree, dst)) *dst = net::host_id_of_mac(mac);
  return *dst >= 0 && *dst < num_hosts_ && *tree < num_trees_;
}

std::optional<switchsim::RuleActions> Routing::mac_rule_at(
    int switch_node, net::MacAddress dst_mac) const {
  return mac_rule(site_of(switch_node), dst_mac);
}

switchsim::MacOracle Routing::mac_oracle(int switch_node) const {
  return [this, site = site_of(switch_node)](net::MacAddress dst_mac) {
    return mac_rule(site, dst_mac);
  };
}

Routing::Site Routing::site_of(int switch_node) const {
  Site site;
  if (switch_node < 0 || switch_node >= graph_.num_nodes() ||
      !graph_.is_switch(switch_node)) {
    return site;
  }
  const net::TopologyShape& sh = graph_.shape();
  const int idx = graph_.switch_index(switch_node);
  switch (sh.kind) {
    case net::FabricKind::kFatTree: {
      const int edges = sh.num_pods * sh.edge_per_pod;
      const int aggs = sh.num_pods * sh.agg_per_pod;
      if (idx < edges) {
        // Edge switches are pod-major, and so are the hosts below them.
        site.tier = Site::Tier::kEdge;
        site.first_host = idx * sh.hosts_per_edge;
        site.host_span = sh.hosts_per_edge;
      } else if (idx < edges + aggs) {
        site.tier = Site::Tier::kAgg;
        site.first_host = (idx - edges) / sh.agg_per_pod * sh.hosts_per_pod();
        site.host_span = sh.hosts_per_pod();
        site.root = (idx - edges) % sh.agg_per_pod * (sh.k / 2);
      } else {
        site.tier = Site::Tier::kCore;
        site.root = idx - edges - aggs;
      }
      break;
    }
    case net::FabricKind::kLeafSpine:
      if (idx < sh.num_leaves) {
        site.tier = Site::Tier::kLeaf;
        site.first_host = idx * sh.hosts_per_leaf;
        site.host_span = sh.hosts_per_leaf;
      } else {
        site.tier = Site::Tier::kSpine;
        site.root = idx - sh.num_leaves;
      }
      break;
    case net::FabricKind::kStar:
      site.tier = Site::Tier::kStar;
      site.host_span = num_hosts_;
      break;
    case net::FabricKind::kUnknown:
      break;
  }
  return site;
}

std::optional<switchsim::RuleActions> Routing::mac_rule(
    const Site& site, net::MacAddress dst_mac) const {
  int dst = -1;
  int tree = 0;
  if (site.tier == Site::Tier::kNone || !decode_mac(dst_mac, &dst, &tree)) {
    return std::nullopt;
  }
  switchsim::RuleActions actions;
  const int below = dst - site.first_host;
  if (site.tier == Site::Tier::kEdge || site.tier == Site::Tier::kLeaf ||
      site.tier == Site::Tier::kStar) {
    if (below >= 0 && below < site.host_span) {
      // The destination's own switch, the last hop of every other host's
      // path to it: out the host port, restoring the base MAC on a shadow
      // tree so the host accepts the frame (§6.2, "Rewrite to Base MAC").
      if (num_hosts_ < 2) return std::nullopt;
      actions.out_port = below;
      if (tree != 0) actions.set_dst_mac = net::host_mac(dst, 0);
      return actions;
    }
  }
  if (site.tier == Site::Tier::kStar) return std::nullopt;

  // Relative tree -> absolute core (spine) for this destination, as in
  // path(). tree < num_roots, so one subtraction replaces the modulus.
  const net::TopologyShape& sh = graph_.shape();
  const bool leaf_spine = sh.kind == net::FabricKind::kLeafSpine;
  const int num_roots = leaf_spine ? sh.num_spines : sh.num_core;
  int root = base_core(dst, num_roots) + tree;
  if (root >= num_roots) root -= num_roots;

  switch (site.tier) {
    case Site::Tier::kEdge:
      // First hop of the hosts below: up to the agg that reaches the core.
      actions.out_port = sh.edge_port_for_agg(sh.agg_for_core(root));
      return actions;
    case Site::Tier::kLeaf:
      actions.out_port = sh.leaf_port_for_spine(root);
      return actions;
    case Site::Tier::kAgg:
      // On the tree only if it reaches the tree's core: down to the
      // destination's edge inside its pod, else up to that core.
      if (root < site.root || root >= site.root + sh.k / 2) {
        return std::nullopt;
      }
      actions.out_port = below >= 0 && below < site.host_span
                             ? below / sh.hosts_per_edge
                             : sh.agg_port_for_core(root);
      return actions;
    case Site::Tier::kCore:
      if (root != site.root) return std::nullopt;
      actions.out_port = sh.pod_of_host(dst);
      return actions;
    case Site::Tier::kSpine:
      // Only hosts on another leaf cross a spine.
      if (root != site.root || sh.num_leaves < 2) return std::nullopt;
      actions.out_port = sh.leaf_of_ls_host(dst);
      return actions;
    default:
      return std::nullopt;
  }
}

net::RoutePath Routing::compute_fat_tree_path(int src, int dst,
                                              int tree) const {
  const net::TopologyShape& sh = graph_.shape();
  net::RoutePath p;
  p.src_host = src;
  p.dst_host = dst;
  p.tree = tree;
  p.hops.reserve(5);  // edge-agg-core-agg-edge at most

  const int ps = sh.pod_of_host(src);
  const int pd = sh.pod_of_host(dst);
  const int es = sh.edge_of_host(src);
  const int ed = sh.edge_of_host(dst);
  const int leaf_s = sh.leaf_of_host(src);
  const int leaf_d = sh.leaf_of_host(dst);
  // Relative tree -> absolute core for this destination (PAST hashing).
  const int core_idx = (base_core(dst, sh.num_core) + tree) % sh.num_core;
  const int a = sh.agg_for_core(core_idx);

  const int edge_s = graph_.switch_node(sh.edge_switch_index(ps, es));
  const int edge_d = graph_.switch_node(sh.edge_switch_index(pd, ed));

  if (ps == pd && es == ed) {
    p.hops.push_back({edge_s, leaf_s, leaf_d});
    return p;
  }
  if (ps == pd) {
    const int agg = graph_.switch_node(sh.agg_switch_index(ps, a));
    p.hops.push_back({edge_s, leaf_s, sh.edge_port_for_agg(a)});
    p.hops.push_back({agg, es, ed});
    p.hops.push_back({edge_d, sh.edge_port_for_agg(a), leaf_d});
    return p;
  }
  const int agg_s = graph_.switch_node(sh.agg_switch_index(ps, a));
  const int agg_d = graph_.switch_node(sh.agg_switch_index(pd, a));
  const int core = graph_.switch_node(sh.core_switch_index(core_idx));
  p.hops.push_back({edge_s, leaf_s, sh.edge_port_for_agg(a)});
  p.hops.push_back({agg_s, es, sh.agg_port_for_core(core_idx)});
  p.hops.push_back({core, ps, pd});
  p.hops.push_back({agg_d, sh.agg_port_for_core(core_idx), ed});
  p.hops.push_back({edge_d, sh.edge_port_for_agg(a), leaf_d});
  return p;
}

net::RoutePath Routing::compute_leaf_spine_path(int src, int dst,
                                                int tree) const {
  const net::TopologyShape& sh = graph_.shape();
  net::RoutePath p;
  p.src_host = src;
  p.dst_host = dst;
  p.tree = tree;
  p.hops.reserve(3);  // leaf-spine-leaf at most

  const int ls = sh.leaf_of_ls_host(src);
  const int ld = sh.leaf_of_ls_host(dst);
  const int port_s = sh.leaf_port_of_ls_host(src);
  const int port_d = sh.leaf_port_of_ls_host(dst);
  const int leaf_s = graph_.switch_node(sh.leaf_switch_index(ls));

  if (ls == ld) {
    p.hops.push_back({leaf_s, port_s, port_d});
    return p;
  }
  // Each spine defines one tree; the base spine is hashed per destination
  // exactly like fat-tree base cores.
  const int spine_idx =
      (base_core(dst, sh.num_spines) + tree) % sh.num_spines;
  const int leaf_d = graph_.switch_node(sh.leaf_switch_index(ld));
  const int spine = graph_.switch_node(sh.spine_switch_index(spine_idx));
  p.hops.push_back({leaf_s, port_s, sh.leaf_port_for_spine(spine_idx)});
  p.hops.push_back({spine, ls, ld});
  p.hops.push_back({leaf_d, sh.leaf_port_for_spine(spine_idx), port_d});
  return p;
}

net::RoutePath Routing::compute_star_path(int src, int dst) const {
  net::RoutePath p;
  p.src_host = src;
  p.dst_host = dst;
  p.tree = 0;
  const int sw = graph_.switch_node(0);
  // Star wiring: host h occupies switch port h.
  p.hops.push_back({sw, src, dst});
  return p;
}

}  // namespace planck::controller
