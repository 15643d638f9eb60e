#pragma once

#include <cstdint>
#include <limits>
#include <map>

#include "controller/routing.hpp"
#include "net/packet.hpp"
#include "net/route_info.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace planck::te {

/// A flow the TE application has heard about, with the freshest rate
/// estimate and the tree it currently uses.
struct KnownFlow {
  net::FlowKey key;
  int src_host = -1;
  int dst_host = -1;
  int tree = 0;
  sim::BitsPerSecF rate_bps{0.0};
  sim::Time last_heard = 0;
  /// When this flow was last rerouted; -1 if never. Used to ignore stale
  /// notifications that predate an in-flight reroute.
  sim::Time last_reroute = -1;
  /// Route-program epoch of the last reroute this application issued
  /// (DESIGN.md §10); 0 if never. Lets the TE correlate its decision with
  /// the controller's commit/fallback bookkeeping.
  std::uint64_t last_epoch = 0;
};

/// The TE application's view of the network (Algorithm 1's `net`): known
/// flows and the link loads they imply. Flow entries are expunged after a
/// timeout so stale information is not used when calculating available
/// bandwidth (§6.2).
class TeState {
 public:
  explicit TeState(const controller::Routing& routing) : routing_(routing) {}

  KnownFlow& upsert(const net::FlowKey& key) { return flows_[key]; }

  void remove_old_flows(sim::Time cutoff) {
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.last_heard < cutoff) {
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Load on every directed link implied by the known flows, optionally
  /// excluding one flow (the one being rerouted). Each link's load is the
  /// left fold of its flows' rates in key order.
  std::map<net::DirectedLink, sim::BitsPerSecF> link_loads(
      const net::FlowKey* exclude = nullptr) const {
    std::map<net::DirectedLink, sim::BitsPerSecF> loads;
    for (const auto& [key, flow] : flows_) {
      if (exclude != nullptr && key == *exclude) continue;
      const net::RoutePath path =
          routing_.path(flow.src_host, flow.dst_host, flow.tree);
      for (const net::PathHop& hop : path.hops) {
        loads[net::DirectedLink{hop.switch_node, hop.out_port}] +=
            flow.rate_bps;
      }
    }
    return loads;
  }

  /// DevoFlow Algorithm 1 (`find_path_btlneck`): the expected bottleneck
  /// capacity of `path` given `loads` — the minimum across its links of
  /// (capacity - load).
  sim::BitsPerSecF path_bottleneck(
      const net::RoutePath& path,
      const std::map<net::DirectedLink, sim::BitsPerSecF>& loads) const {
    sim::BitsPerSecF bottleneck{std::numeric_limits<double>::infinity()};
    for (const net::PathHop& hop : path.hops) {
      const net::DirectedLink link{hop.switch_node, hop.out_port};
      const sim::BitsPerSecF capacity = sim::to_rate_estimate(
          routing_.graph().link_spec(hop.switch_node, hop.out_port).rate);
      const auto it = loads.find(link);
      const sim::BitsPerSecF load =
          it == loads.end() ? sim::BitsPerSecF{0.0} : it->second;
      bottleneck = std::min(bottleneck, capacity - load);
    }
    return bottleneck;
  }

  std::size_t size() const { return flows_.size(); }
  const std::map<net::FlowKey, KnownFlow>& flows() const { return flows_; }
  std::map<net::FlowKey, KnownFlow>& mutable_flows() { return flows_; }

 private:
  const controller::Routing& routing_;
  std::map<net::FlowKey, KnownFlow> flows_;
};

}  // namespace planck::te
