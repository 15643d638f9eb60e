#include "workload/testbed.hpp"

#include <stdexcept>
#include <string>

#include "sim/parallel.hpp"

namespace planck::workload {

namespace {
/// Propagation of the monitor-port cables; their rate is that of the
/// switch's first data link.
constexpr sim::Duration kMonitorPropagation = sim::microseconds(1);
}  // namespace

Testbed::Testbed(sim::Simulation& simulation, const net::TopologyGraph& graph,
                 const TestbedConfig& config)
    : sim_(simulation), graph_(graph), config_(config),
      link_rng_(config.seed) {
  build();
}

Testbed::Testbed(sim::ParallelEngine& engine, const net::PartitionMap& map,
                 const net::TopologyGraph& graph, const TestbedConfig& config)
    : sim_(engine.control()), engine_(&engine), pmap_(map), graph_(graph),
      config_(config), link_rng_(config.seed) {
  if (map.num_partitions != engine.data_partitions()) {
    throw std::invalid_argument(
        "Testbed: partition map has " + std::to_string(map.num_partitions) +
        " data partitions, engine has " +
        std::to_string(engine.data_partitions()));
  }
  // Every boundary delivery takes at least the map's minimum boundary
  // propagation; an engine window wider than that could deliver into a
  // partition's past.
  if (map.cross_links > 0 &&
      engine.lookahead() > map.min_cross_propagation) {
    throw std::invalid_argument(
        "Testbed: engine lookahead " + std::to_string(engine.lookahead()) +
        " ns exceeds the map's minimum boundary propagation " +
        std::to_string(map.min_cross_propagation) + " ns");
  }
  build();
}

sim::Simulation& Testbed::sim_for_node(int node) {
  if (engine_ == nullptr) return sim_;
  return engine_->partition(pmap_.partition_of(node));
}

void Testbed::build() {
  // Instantiate hosts and switches, each on its node's partition.
  for (int node = 0; node < graph_.num_nodes(); ++node) {
    sim::Simulation& node_sim = sim_for_node(node);
    // Node order is host-index and switch-index order.
    if (graph_.is_host(node)) {
      hosts_.push_back(std::make_unique<tcp::Host>(
          node_sim, graph_.host_index(node), config_.host_config));
    } else {
      const int data_ports = graph_.num_ports(node);
      const int total_ports = data_ports + (config_.enable_planck ? 1 : 0);
      switchsim::SwitchConfig sw_config = config_.switch_config;
      sw_config.seed ^= static_cast<std::uint64_t>(
          0x100001 * (graph_.switch_index(node) + 1));
      auto sw = std::make_unique<switchsim::Switch>(
          node_sim, "sw" + std::to_string(graph_.switch_index(node)),
          total_ports, sw_config);
      switches_.push_back(std::move(sw));
    }
  }

  // Wire the data plane: one unidirectional Link per cable direction. A
  // link lives on its *transmitter's* partition; when the receiver sits on
  // another one, connect() records the destination simulation and
  // deliveries ride the engine mailbox (net::Link::transmit).
  for (int node = 0; node < graph_.num_nodes(); ++node) {
    sim::Simulation& node_sim = sim_for_node(node);
    for (int port = 0; port < graph_.num_ports(node); ++port) {
      const net::PortRef peer = graph_.peer(node, port);
      if (!peer.valid()) continue;
      const net::LinkSpec& spec = graph_.link_spec(node, port);
      net::Link* out = make_link(node_sim, spec.rate, spec.propagation);
      // Receiving end.
      if (graph_.is_host(peer.node)) {
        out->connect(host(graph_.host_index(peer.node)), 0,
                     &sim_for_node(peer.node));
      } else {
        out->connect(switch_by_node(peer.node), peer.port,
                     &sim_for_node(peer.node));
      }
      // Transmitting end.
      if (graph_.is_host(node)) {
        host(graph_.host_index(node))->attach_link(out);
      } else {
        switch_by_node(node)->attach_link(port, out);
      }
    }
  }

  // Controller + Planck collectors. The controller stack binds to sim_ —
  // the only simulation when unsharded, the engine's control partition
  // when sharded.
  controller_ = std::make_unique<controller::Controller>(
      sim_, graph_, config_.controller_config);
  for (int h = 0; h < num_hosts(); ++h) {
    controller_->attach_host(h, hosts_[static_cast<std::size_t>(h)].get());
  }
  // Switch-index (node) order: collector construction order decides
  // link_rng_ draws (monitor-cable skew), which must reproduce across runs.
  for (int i = 0; i < num_switches(); ++i) {
    const int node = graph_.switch_node(i);
    switchsim::Switch* sw = switch_by_index(i);
    sim::Simulation& sw_sim = sim_for_node(node);
    int monitor_port = -1;
    if (config_.enable_planck) {
      monitor_port = graph_.num_ports(node);  // the extra port
      // The collector is pinned to its switch's partition: the whole
      // sample path (mirror, monitor cable, intake) stays intra-partition.
      auto collector = std::make_unique<core::Collector>(
          sw_sim, "collector-" + sw->name(), node, config_.collector_config);
      // Monitor cable: same rate as the switch's first data link.
      sim::BitsPerSec rate = sim::gigabits_per_sec(10);
      for (int p = 0; p < graph_.num_ports(node); ++p) {
        if (graph_.wired(node, p)) {
          rate = graph_.link_spec(node, p).rate;
          break;
        }
      }
      net::Link* monitor_link = make_link(sw_sim, rate, kMonitorPropagation);
      monitor_link->connect(collector.get(), 0);
      sw->attach_link(monitor_port, monitor_link);
      controller_->attach_collector(node, collector.get());
      collectors_.push_back(std::move(collector));
    }
    controller_->attach_switch(node, sw, monitor_port);
    // Loss-of-signal notifications flow to the controller over its (lossy)
    // control channel. Under the sharded engine the switch fires on its
    // data partition, so the notification first hops to the control
    // partition (one lookahead grid step, merged at the window barrier).
    if (&sw_sim != &sim_) {
      sw->set_port_status_handler([this, node, &sw_sim](int port, bool up) {
        sw_sim.post(sim_, sw_sim.cross_lookahead(), [this, node, port, up] {
          controller_->notify_port_status(node, port, up);
        });
      });
    } else {
      sw->set_port_status_handler([this, node](int port, bool up) {
        controller_->notify_port_status(node, port, up);
      });
    }
  }

  controller_->install_routes();
}

void Testbed::set_link_state(int node, int port, bool up) {
  set_direction_state(node, port, up);
  const net::PortRef peer = graph_.peer(node, port);
  if (peer.valid()) set_direction_state(peer.node, peer.port, up);
}

void Testbed::set_direction_state(int node, int port, bool up) {
  if (!graph_.is_host(node)) {
    switch_by_node(node)->set_port_admin(port, up);
    return;
  }
  // Host end: no admin plane, just the PHY.
  net::Link* link = link_out(node, port);
  if (link != nullptr) link->set_admin_up(up);
}

void Testbed::set_switch_online(int graph_node, bool online) {
  switch_by_node(graph_node)->set_online(online);
}

void Testbed::set_collector_online(int graph_node, bool online) {
  collectors_.at(switch_slot(graph_node))->set_online(online);
}

std::size_t Testbed::switch_slot(int node) const {
  if (node < 0 || node >= graph_.num_nodes() || !graph_.is_switch(node)) {
    return switches_.size();
  }
  return static_cast<std::size_t>(graph_.switch_index(node));
}

net::Link* Testbed::link_out(int node, int port) {
  if (node < 0 || node >= graph_.num_nodes() || port < 0) return nullptr;
  if (graph_.is_host(node)) {
    return port == 0 ? host(graph_.host_index(node))->link() : nullptr;
  }
  const switchsim::Switch* sw = switch_by_node(node);
  return port < sw->num_ports() ? sw->link(port) : nullptr;
}

net::Link* Testbed::make_link(sim::Simulation& source_sim,
                              sim::BitsPerSec rate,
                              sim::Duration propagation) {
  // Clock-tolerance skew (see TestbedConfig::link_rate_ppm).
  if (config_.link_rate_ppm > 0) {
    const double skew = link_rng_.uniform(-config_.link_rate_ppm,
                                          config_.link_rate_ppm) *
                        1e-6;
    rate = sim::BitsPerSec{static_cast<std::int64_t>(
        static_cast<double>(rate.count()) * (1.0 + skew))};
  }
  links_.push_back(
      std::make_unique<net::Link>(source_sim, rate, propagation));
  return links_.back().get();
}

std::vector<switchsim::Switch*> Testbed::switch_nodes() {
  std::vector<switchsim::Switch*> out;
  out.reserve(switches_.size());
  for (const auto& sw : switches_) out.push_back(sw.get());
  return out;
}

}  // namespace planck::workload
