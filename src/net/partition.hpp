#pragma once

#include <vector>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace planck::net {

/// Topology-derived partitioning for the sharded engine (DESIGN.md §14):
/// which data partition each graph node's state lives in, which cables
/// cross a partition boundary, and the conservative lookahead those
/// boundary cables support.
///
/// Partition layout by fabric:
///   fat-tree    pod p (its hosts, edge and agg switches) -> partition p;
///               all core switches -> partition num_pods. Boundary links
///               are exactly the agg<->core cables.
///   star/unknown  everything -> partition 0 (no boundary; the engine
///               degenerates to a sequential schedule plus the serial
///               control partition).
///
/// The control partition is *not* in this map — it holds no topology
/// nodes; the engine appends it after the data partitions.
struct PartitionMap {
  int num_partitions = 1;           ///< data partitions only
  std::vector<int> node_partition;  ///< graph node -> partition id

  /// Minimum propagation delay over all boundary cables; 0 when the map
  /// has no boundary (single partition).
  sim::Duration min_cross_propagation = 0;
  /// Unidirectional boundary link count (each cable counts twice).
  int cross_links = 0;

  int partition_of(int node) const {
    return node_partition[static_cast<std::size_t>(node)];
  }
  bool cross(int node_a, int node_b) const {
    return partition_of(node_a) != partition_of(node_b);
  }

  /// The engine's conservative horizon: every boundary delivery takes at
  /// least serialization + propagation >= this, so partitions may run
  /// `lookahead()` past the fabric-wide minimum next-event time without
  /// risk of receiving into their past. A boundary-free map returns a
  /// default horizon (any value is safe — it only sets the control
  /// partition's barrier cadence).
  sim::Duration lookahead() const {
    return min_cross_propagation > 0 ? min_cross_propagation
                                     : sim::microseconds(100);
  }
};

/// Builds the partition map for `graph` from its TopologyShape.
PartitionMap make_partition_map(const TopologyGraph& graph);

}  // namespace planck::net
