#include "net/partition.hpp"

namespace planck::net {

namespace {

/// Data partition of a graph node under the fabric's layout; 0 for
/// unknown/star fabrics (single partition).
int partition_of_node(const TopologyShape& shape, const TopologyGraph& graph,
                      int node) {
  switch (shape.kind) {
    case FabricKind::kFatTree: {
      if (graph.is_host(node)) {
        return shape.pod_of_host(graph.host_index(node));
      }
      const int sw = graph.switch_index(node);
      const int edges = shape.num_pods * shape.edge_per_pod;
      if (sw < edges) return sw / shape.edge_per_pod;
      const int aggs = shape.num_pods * shape.agg_per_pod;
      if (sw < edges + aggs) return (sw - edges) / shape.agg_per_pod;
      return shape.num_pods;  // core layer
    }
    case FabricKind::kStar:
    case FabricKind::kUnknown:
      return 0;
  }
  return 0;
}

}  // namespace

PartitionMap make_partition_map(const TopologyGraph& graph) {
  const TopologyShape& shape = graph.shape();
  PartitionMap map;
  map.node_partition.resize(static_cast<std::size_t>(graph.num_nodes()), 0);
  for (int node = 0; node < graph.num_nodes(); ++node) {
    const int pid = partition_of_node(shape, graph, node);
    map.node_partition[static_cast<std::size_t>(node)] = pid;
    if (pid + 1 > map.num_partitions) map.num_partitions = pid + 1;
  }

  // Boundary cables and the conservative horizon they support.
  for (int node = 0; node < graph.num_nodes(); ++node) {
    for (int port = 0; port < graph.num_ports(node); ++port) {
      const PortRef peer = graph.peer(node, port);
      if (!peer.valid() || !map.cross(node, peer.node)) continue;
      ++map.cross_links;
      const sim::Duration prop = graph.link_spec(node, port).propagation;
      if (map.min_cross_propagation == 0 ||
          prop < map.min_cross_propagation) {
        map.min_cross_propagation = prop;
      }
    }
  }
  return map;
}

}  // namespace planck::net
