#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "controller/controller.hpp"
#include "core/collector.hpp"
#include "net/link.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "switchsim/switch.hpp"
#include "tcp/host.hpp"

namespace planck::sim {
class ParallelEngine;
}  // namespace planck::sim

namespace planck::workload {

struct TestbedConfig {
  switchsim::SwitchConfig switch_config;
  tcp::HostConfig host_config;
  controller::ControllerConfig controller_config;
  core::CollectorConfig collector_config;
  /// Give every switch a monitor port (one extra port beyond the graph's
  /// data ports) wired to its own collector, and enable mirroring.
  bool enable_planck = true;

  /// Per-link clock tolerance, applied as a random rate skew of up to
  /// +/- this many parts per million (IEEE 802.3 allows +/-100 ppm).
  /// Without it the simulation is pathologically synchronous: e.g. a
  /// saturated flow's arrival rate exactly equals a port's drain rate, the
  /// queue freezes at the drop threshold, and a competing flow's
  /// retransmissions lose the admission race forever. Real oscillators
  /// drift; so do these.
  double link_rate_ppm = 50.0;
  std::uint64_t seed = 42;
};

/// Instantiates a running network from a TopologyGraph: switches (with an
/// extra monitor port per switch when Planck is enabled), hosts, cables,
/// per-switch collectors, and the controller, fully wired and with routes
/// installed. This is the simulated equivalent of the paper's testbed
/// (§7.1).
class Testbed {
 public:
  Testbed(sim::Simulation& simulation, const net::TopologyGraph& graph,
          const TestbedConfig& config);

  /// Sharded flavor (DESIGN.md §14): every node's state is instantiated on
  /// the partition `map` assigns it, boundary cables are wired through the
  /// engine mailbox, and the controller/TE stack lives on the engine's
  /// control partition (which sim() then returns). Throws
  /// std::invalid_argument unless `map.num_partitions` equals
  /// `engine.data_partitions()` and, when the map has boundary links,
  /// `engine.lookahead()` is at most `map.min_cross_propagation`. For a
  /// fixed `map` the run is the same at any thread count. It is not the
  /// plain constructor's run, even with one data partition: the engine
  /// runs the control partition only at window bounds, so controller
  /// actions land on the lookahead grid.
  Testbed(sim::ParallelEngine& engine, const net::PartitionMap& map,
          const net::TopologyGraph& graph, const TestbedConfig& config);

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// The control-plane simulation: the only one under the plain
  /// constructor; the engine's control partition under the sharded one.
  sim::Simulation& sim() { return sim_; }
  const net::TopologyGraph& graph() const { return graph_; }
  controller::Controller& controller() { return *controller_; }

  tcp::Host* host(int host_index) {
    return hosts_[static_cast<std::size_t>(host_index)].get();
  }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }

  /// Throws std::out_of_range unless `graph_node` is a switch.
  switchsim::Switch* switch_by_node(int graph_node) {
    return switches_.at(switch_slot(graph_node)).get();
  }
  switchsim::Switch* switch_by_index(int switch_index) {
    return switches_[static_cast<std::size_t>(switch_index)].get();
  }
  int num_switches() const { return static_cast<int>(switches_.size()); }

  /// nullptr for a node without a switch, or when Planck is disabled.
  core::Collector* collector_by_node(int graph_node) {
    const std::size_t i = switch_slot(graph_node);
    return i < collectors_.size() ? collectors_[i].get() : nullptr;
  }
  const std::vector<std::unique_ptr<core::Collector>>& collectors() const {
    return collectors_;
  }

  /// All switches in node order — what PollTe polls.
  std::vector<switchsim::Switch*> switch_nodes();

  // --- fault-plane hooks --------------------------------------------------
  /// The Link transmitting out of (node, port); monitor cables live at
  /// (switch node, monitor port). nullptr when unwired.
  net::Link* link_out(int node, int port);
  /// Cuts or restores the whole cable attached to (node, port): both
  /// directions go down. A switch end goes through set_port_admin (so the
  /// loss-of-signal notification reaches the controller); a host end just
  /// kills the link (hosts don't speak the control protocol).
  void set_link_state(int node, int port, bool up);
  /// Crash/restore a whole switch (wedged data plane; see Switch).
  void set_switch_online(int graph_node, bool online);
  /// Crash/restore one collector process.
  void set_collector_online(int graph_node, bool online);

 private:
  /// Shared constructor body. The link-rng draw order, construction order
  /// and wiring are identical in both modes; only *which* simulation each
  /// component binds to differs.
  void build();
  /// `node`'s index into switches_ and collectors_ (its switch index);
  /// past both ends for a host or a node outside the graph.
  std::size_t switch_slot(int node) const;
  /// The partition `node`'s state lives on: sim_ when unsharded.
  sim::Simulation& sim_for_node(int node);
  net::Link* make_link(sim::Simulation& source_sim, sim::BitsPerSec rate,
                       sim::Duration propagation);
  void set_direction_state(int node, int port, bool up);

  sim::Simulation& sim_;
  sim::ParallelEngine* engine_ = nullptr;  // non-null: sharded mode
  net::PartitionMap pmap_;                 // empty when unsharded
  net::TopologyGraph graph_;
  TestbedConfig config_;
  sim::Rng link_rng_{42};

  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::unique_ptr<tcp::Host>> hosts_;
  /// Both by switch index, which is node order; collectors_ is empty when
  /// Planck is disabled.
  std::vector<std::unique_ptr<switchsim::Switch>> switches_;
  std::vector<std::unique_ptr<core::Collector>> collectors_;
  std::unique_ptr<controller::Controller> controller_;
};

}  // namespace planck::workload
