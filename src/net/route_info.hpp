#pragma once

#include <compare>
#include <functional>
#include <map>
#include <vector>

#include "net/addresses.hpp"
#include "net/topology.hpp"

namespace planck::net {

/// One switch traversal on a routed path.
struct PathHop {
  int switch_node = -1;  // TopologyGraph node id
  int in_port = -1;
  int out_port = -1;

  friend bool operator==(const PathHop&, const PathHop&) = default;
};

/// A full host-to-host path on one routing tree.
struct RoutePath {
  int src_host = -1;  // host index
  int dst_host = -1;  // host index
  int tree = 0;       // 0 = base tree, >= 1 = shadow trees
  std::vector<PathHop> hops;

  friend bool operator==(const RoutePath&, const RoutePath&) = default;
};

/// A directed link in the topology, identified by its transmitting end
/// (the switch and output port that feed it). This is the unit at which
/// utilization is tracked and congestion reported.
struct DirectedLink {
  int node = -1;
  int port = -1;

  friend auto operator<=>(const DirectedLink&, const DirectedLink&) = default;
};

struct MacPair {
  MacAddress src = kMacNone;
  MacAddress dst = kMacNone;

  friend auto operator<=>(const MacPair&, const MacPair&) = default;
};

/// The input and output port a frame uses at one switch; -1 when unknown.
struct SwitchPorts {
  int in = -1;
  int out = -1;

  friend bool operator==(const SwitchPorts&, const SwitchPorts&) = default;
};

/// Port inference for one switch (§3.2.1): the ports a frame with this
/// source MAC and routing (possibly shadow) destination MAC uses there.
/// Collectors call it from their own partition, so it may only read
/// immutable state.
using PortOracle = std::function<SwitchPorts(MacAddress src, MacAddress dst)>;

/// A hand-built forwarding table for one switch, for callers that have no
/// Routing (unit tests, microbenchmarks); Collector::update_route_view
/// turns it into a PortOracle. Because the network routes on destination
/// MAC, the output port is a function of dst MAC alone and the input port
/// a function of the (src, dst) MAC pair.
struct SwitchRouteView {
  std::map<MacAddress, int> out_port_by_dst;
  std::map<MacPair, int> in_port_by_pair;

  /// -1 when unknown.
  int out_port(MacAddress dst) const {
    const auto it = out_port_by_dst.find(dst);
    return it == out_port_by_dst.end() ? -1 : it->second;
  }
  int in_port(MacAddress src, MacAddress dst) const {
    const auto it = in_port_by_pair.find(MacPair{src, dst});
    return it == in_port_by_pair.end() ? -1 : it->second;
  }
};

}  // namespace planck::net
