#include "fault/fault_injector.hpp"

#include <cassert>

#include "sim/contract.hpp"

namespace planck::fault {

FaultInjector::FaultInjector(sim::Simulation& simulation,
                             workload::Testbed& testbed, std::uint64_t seed)
    : sim_(simulation), testbed_(testbed), rng_(seed) {
  const net::TopologyGraph& graph = testbed.graph();
  for (int node = 0; node < graph.num_nodes(); ++node) {
    link_depth_.emplace_back(static_cast<std::size_t>(graph.num_ports(node)));
  }
  switch_depth_.resize(link_depth_.size());
  collector_depth_.resize(link_depth_.size());
}

net::DirectedLink FaultInjector::cable_id(int node, int port) const {
  const net::PortRef peer = testbed_.graph().peer(node, port);
  if (!peer.valid() || node <= peer.node) return net::DirectedLink{node, port};
  return net::DirectedLink{peer.node, peer.port};
}

int& FaultInjector::link_depth(int node, int port) {
  const net::DirectedLink end = cable_id(node, port);
  auto& depths = link_depth_[static_cast<std::size_t>(end.node)];
  return depths[static_cast<std::size_t>(end.port)];
}

void FaultInjector::record(FaultKind kind, int node, int port) {
  history_.push_back(FaultRecord{sim_.now(), kind, node, port});
}

void FaultInjector::fail_link(int node, int port) {
  if (++link_depth(node, port) != 1) return;  // already down
  testbed_.set_link_state(node, port, false);
  record(FaultKind::kLinkDown, node, port);
}

void FaultInjector::restore_link(int node, int port) {
  int& depth = link_depth(node, port);
  assert(depth > 0);
  if (--depth != 0) return;  // another outage still holds it
  testbed_.set_link_state(node, port, true);
  record(FaultKind::kLinkUp, node, port);
}

void FaultInjector::crash_switch(int node) {
  if (++switch_depth_.at(static_cast<std::size_t>(node)) != 1) return;
  testbed_.set_switch_online(node, false);
  record(FaultKind::kSwitchCrash, node, -1);
}

void FaultInjector::restore_switch(int node) {
  int& depth = switch_depth_.at(static_cast<std::size_t>(node));
  assert(depth > 0);
  if (--depth != 0) return;
  testbed_.set_switch_online(node, true);
  record(FaultKind::kSwitchRestore, node, -1);
}

void FaultInjector::crash_collector(int node) {
  if (++collector_depth_.at(static_cast<std::size_t>(node)) != 1) return;
  testbed_.set_collector_online(node, false);
  record(FaultKind::kCollectorCrash, node, -1);
}

void FaultInjector::restore_collector(int node) {
  int& depth = collector_depth_.at(static_cast<std::size_t>(node));
  assert(depth > 0);
  if (--depth != 0) return;
  testbed_.set_collector_online(node, true);
  record(FaultKind::kCollectorRestore, node, -1);
}

void FaultInjector::schedule_link_outage(sim::Time at, sim::Duration duration,
                                         int node, int port) {
  sim_.schedule_at(at, [this, node, port] { fail_link(node, port); });
  sim_.schedule_at(at + duration,
                   [this, node, port] { restore_link(node, port); });
}

void FaultInjector::schedule_switch_outage(sim::Time at,
                                           sim::Duration duration, int node) {
  sim_.schedule_at(at, [this, node] { crash_switch(node); });
  sim_.schedule_at(at + duration, [this, node] { restore_switch(node); });
}

void FaultInjector::schedule_collector_outage(sim::Time at,
                                              sim::Duration duration,
                                              int node) {
  sim_.schedule_at(at, [this, node] { crash_collector(node); });
  sim_.schedule_at(at + duration, [this, node] { restore_collector(node); });
}

int FaultInjector::plan_random(const ChaosConfig& config) {
  const net::TopologyGraph& graph = testbed_.graph();

  // Candidate enumeration in fixed node/port order: the seed alone decides
  // the schedule.
  std::vector<net::DirectedLink> cables;   // canonical (lower node) end
  std::vector<int> switch_nodes;
  std::vector<int> collector_nodes;
  for (int node = 0; node < graph.num_nodes(); ++node) {
    if (!graph.is_host(node)) {
      switch_nodes.push_back(node);
      if (testbed_.collector_by_node(node) != nullptr) {
        collector_nodes.push_back(node);
      }
    }
    for (int port = 0; port < graph.num_ports(node); ++port) {
      const net::PortRef peer = graph.peer(node, port);
      if (!peer.valid()) continue;
      if (node > peer.node) continue;  // count each cable once
      // Never cut a host's access cable: every shadow tree shares it, so
      // no failover exists and the host is simply offline for the outage.
      if (graph.is_host(node) || graph.is_host(peer.node)) continue;
      cables.push_back(net::DirectedLink{node, port});
    }
  }

  std::vector<FaultKind> classes;
  if (!cables.empty()) classes.push_back(FaultKind::kLinkDown);
  if (!switch_nodes.empty()) classes.push_back(FaultKind::kSwitchCrash);
  if (config.include_collectors && !collector_nodes.empty()) {
    classes.push_back(FaultKind::kCollectorCrash);
  }
  if (classes.empty()) return 0;

  for (int i = 0; i < config.num_faults; ++i) {
    const FaultKind kind = classes[rng_.below(classes.size())];
    const sim::Time at =
        config.start + static_cast<sim::Duration>(
                           rng_.uniform() *
                           static_cast<double>(config.spread));
    const sim::Duration down =
        config.min_down +
        static_cast<sim::Duration>(
            rng_.uniform() *
            static_cast<double>(config.max_down - config.min_down));
    switch (kind) {
      case FaultKind::kLinkDown: {
        const net::DirectedLink cable = cables[rng_.below(cables.size())];
        schedule_link_outage(at, down, cable.node, cable.port);
        break;
      }
      case FaultKind::kSwitchCrash:
        schedule_switch_outage(at, down,
                               switch_nodes[rng_.below(switch_nodes.size())]);
        break;
      case FaultKind::kCollectorCrash:
        schedule_collector_outage(
            at, down, collector_nodes[rng_.below(collector_nodes.size())]);
        break;
      default:
        break;
    }
  }
  return config.num_faults;
}

bool FaultInjector::link_down(int node, int port) const {
  const net::DirectedLink end = cable_id(node, port);
  const auto& depths = link_depth_[static_cast<std::size_t>(end.node)];
  return depths[static_cast<std::size_t>(end.port)] > 0;
}

bool FaultInjector::switch_down(int node) const {
  return node >= 0 && node < static_cast<int>(switch_depth_.size()) &&
         switch_depth_[static_cast<std::size_t>(node)] > 0;
}

bool FaultInjector::collector_down(int node) const {
  return node >= 0 && node < static_cast<int>(collector_depth_.size()) &&
         collector_depth_[static_cast<std::size_t>(node)] > 0;
}

void FaultInjector::check_epoch_invariants() {
  const std::uint64_t issued = testbed_.controller().epochs().last_epoch();
  for (int i = 0; i < testbed_.num_switches(); ++i) {
    const switchsim::Switch* sw = testbed_.switch_by_index(i);
    PLANCK_CONTRACT(sw->committed_epoch() <= issued,
                    "epoch provenance: no switch may run a route program "
                    "the controller never issued");
    PLANCK_CONTRACT(!sw->rules().staging() ||
                        sw->rules().staged_epoch() > sw->committed_epoch(),
                    "staged-never-served: a staged program must be strictly "
                    "newer than the live one");
  }
}

}  // namespace planck::fault
