#include "controller/controller.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/contract.hpp"

namespace planck::controller {

namespace {
/// TCAM rule-install latency range on the switch control plane; the
/// dominant cost of OpenFlow-based rerouting (Figure 16: 4-9 ms
/// responses, median over 7 ms).
constexpr sim::Duration kOfInstallMin = sim::milliseconds(3);
constexpr sim::Duration kOfInstallMax = sim::milliseconds(7);
/// Latency of an OpenFlow packet-out traversing the switch control-plane
/// CPU before the frame enters the data plane (the ARP reroute path).
constexpr sim::Duration kPacketOutDelay = sim::milliseconds(1);
/// Mechanism used when failing flows over dead links/switches. ARP is
/// the paper's fast path and the right one for repair.
constexpr RerouteMechanism kFailoverMechanism = RerouteMechanism::kArp;
/// Reply deadline for query_link_utilization when the caller asks for a
/// failure callback; both legs are fire-and-forget, so only a timer can
/// surface a lost query.
constexpr sim::Duration kQueryTimeout = sim::milliseconds(2);
}  // namespace

Controller::Controller(sim::Simulation& simulation,
                       const net::TopologyGraph& graph,
                       const ControllerConfig& config)
    : sim_(simulation),
      graph_(graph),
      config_(config),
      routing_(graph),
      rng_(config.seed),
      channel_(simulation, config.channel),
      heartbeat_timer_(simulation, [this] { probe_switches(); }),
      epochs_(simulation) {
  slots_.resize(static_cast<std::size_t>(graph.num_switches()));
  hosts_.resize(static_cast<std::size_t>(graph.num_hosts()), nullptr);
  register_metrics();
}

void Controller::register_metrics() {
  obs::Telemetry* telemetry = sim_.telemetry();
  if (telemetry == nullptr) return;
  obs::MetricRegistry& reg = telemetry->metrics();
  const std::string comp = "controller";
  reg.gauge(comp, "epochs_opened",
            [this] { return static_cast<double>(epochs_.opened()); });
  reg.gauge(comp, "epochs_committed",
            [this] { return static_cast<double>(epochs_.committed()); });
  reg.gauge(comp, "epoch_fallbacks",
            [this] { return static_cast<double>(epochs_.fallbacks()); });
  reg.gauge(comp, "epoch_stale_applies",
            [this] { return static_cast<double>(epochs_.stale_applies()); });
  reg.gauge(comp, "epoch_stale_commits",
            [this] { return static_cast<double>(epochs_.stale_commits()); });
  reg.gauge(comp, "failovers",
            [this] { return static_cast<double>(failovers_); });
  reg.gauge(comp, "failed_reroutes",
            [this] { return static_cast<double>(failed_reroutes_); });
  reg.gauge(comp, "stale_probe_results",
            [this] { return static_cast<double>(stale_probe_results_); });
  reg.gauge(comp, "resyncs", [this] { return static_cast<double>(resyncs_); });
  reg.gauge(comp, "query_timeouts",
            [this] { return static_cast<double>(query_timeouts_); });
  reg.gauge(comp, "blackholed_flows", [this] {
    return static_cast<double>(blackholed_since_.size());
  });
  reg.gauge(comp, "max_blackhole_us",
            [this] { return sim::to_microseconds(max_blackhole_observed_); });
}

void Controller::attach_switch(int graph_node, switchsim::Switch* sw,
                               int monitor_port) {
  SwitchSlot& s = slot(graph_node);
  s.sw = sw;
  s.monitor_port = monitor_port;
}

void Controller::attach_collector(int graph_node,
                                  core::Collector* collector) {
  slot(graph_node).collector = collector;
}

void Controller::attach_host(int host_index, tcp::Host* host) {
  hosts_[static_cast<std::size_t>(host_index)] = host;
}

void Controller::install_routes() {
  // The MAC program and the ARP answers are closed forms of the routing
  // (§6.2): each switch asks its oracle, each host resolves every other
  // fabric host to its base MAC, and each collector asks Routing::ports_at
  // for a flow's ports. Routing is immutable once built, so switches and
  // collectors on data partitions may call it directly. The installed
  // program is stamped as epoch 1 on every switch (synchronously —
  // installation models out-of-band setup, not channel traffic); runtime
  // reroutes version from here.
  const std::uint64_t install_epoch = epochs_.allocate_program();
  for (int i = 0; i < graph_.num_switches(); ++i) {
    const SwitchSlot& s = slots_[static_cast<std::size_t>(i)];
    const int node = graph_.switch_node(i);
    if (s.sw != nullptr) {
      s.sw->rules().set_mac_oracle(routing_.mac_oracle(node));
      if (s.monitor_port >= 0) s.sw->set_mirroring(s.monitor_port);
      s.sw->stage_epoch(install_epoch);
      s.sw->commit_epoch(install_epoch);
    }
    if (s.collector == nullptr) continue;
    s.collector->set_port_oracle(
        [&routing = routing_, node](net::MacAddress src, net::MacAddress dst) {
          return routing.ports_at(node, src, dst);
        });
    for (int port = 0; port < graph_.num_ports(node); ++port) {
      if (graph_.wired(node, port)) {
        s.collector->set_link_capacity(
            port, graph_.link_spec(node, port).rate.count());
      }
    }
  }
  for (tcp::Host* host : hosts_) {
    if (host != nullptr) host->resolve_fabric_hosts(routing_.num_hosts());
  }

  if (config_.heartbeat_interval > 0 && !slots_.empty()) {
    heartbeat_timer_.schedule(config_.heartbeat_interval);
  }
}

std::uint64_t Controller::reroute_flow(const net::FlowKey& key, int tree,
                                       RerouteMechanism mechanism) {
  assert(tree >= 0 && tree < routing_.num_trees());
  const int src_host = net::host_id_of_ip(key.src_ip);
  const int dst_host = net::host_id_of_ip(key.dst_ip);
  assert(src_host >= 0 && dst_host >= 0);
  // The new epoch captures the pre-reroute tree as last-good and moves the
  // flow onto `tree` optimistically — fail_epoch reconciles it if the
  // program never survives the channel.
  const std::uint64_t epoch = epochs_.open(key, tree, tree_of(key));

  // Ingress switch: the first hop of the source's base path.
  const net::RoutePath base = routing_.path(src_host, dst_host, 0);
  assert(!base.hops.empty());
  const int ingress_node = base.hops.front().switch_node;
  const int ingress_in_port = base.hops.front().in_port;
  switchsim::Switch* ingress = slot(ingress_node).sw;
  if (ingress == nullptr) {
    // Degenerate testbed with no ingress attached: nothing to install, the
    // assignment itself is the program.
    epochs_.commit(key, epoch);
    return epoch;
  }

  if (mechanism == RerouteMechanism::kArp) {
    ++arp_reroutes_;
    // Packet-out of a spoofed unicast ARP request via the ingress switch:
    // "from" the destination IP, advertising the shadow MAC (§6.2). The
    // packet-out RPC rides the lossy channel and is retried until the
    // switch acknowledges it; duplicates just re-advertise the same MAC.
    // The inject is epoch-filtered at execution time: a delivery (or
    // retry) landing after a newer program was opened for this flow must
    // not re-poison the host's ARP cache with the older tree — it is
    // acked but not applied.
    net::Packet arp;
    arp.proto = net::Protocol::kArp;
    arp.arp_op = net::ArpOp::kRequest;
    arp.src_ip = key.dst_ip;
    arp.dst_ip = key.src_ip;
    arp.src_mac = net::host_mac(dst_host, tree);
    arp.dst_mac = net::host_mac(src_host, 0);
    const int host_port = ingress_in_port;
    channel_.call(
        [this, ingress, arp, host_port, key, epoch] {
          if (!ingress->online()) return false;
          if (epochs_.begin_apply(key, epoch)) {
            sim_.schedule(kPacketOutDelay, [ingress, arp, host_port] {
              ingress->inject(arp, host_port);
            });
          }
          return true;
        },
        [this, key, epoch, ingress_node](bool ok) {
          if (ok) {
            on_epoch_committed(key, epoch, ingress_node);
          } else {
            fail_epoch(key, epoch);
          }
        });
  } else {
    ++openflow_reroutes_;
    // Flow-mod: TCAM install time is the dominant latency (Figure 16).
    const sim::Duration install =
        kOfInstallMin + static_cast<sim::Duration>(
                            rng_.uniform() *
                            static_cast<double>(kOfInstallMax - kOfInstallMin));
    switchsim::RuleActions actions;
    actions.set_dst_mac = net::host_mac(dst_host, tree);
    program_flow_rule(ingress_node, key, epoch, actions, install);
  }
  return epoch;
}

void Controller::program_flow_rule(
    int node, const net::FlowKey& key, std::uint64_t epoch,
    const std::optional<switchsim::RuleActions>& actions,
    sim::Duration install) {
  // Stage the edit into the switch's open program, then commit it with a
  // second RPC (DESIGN.md §10). The commit waits for the install, so a
  // partially-written program is never served; either RPC exhausting its
  // retries aborts the program and falls back to last-good.
  switchsim::Switch* sw = slot(node).sw;
  run_on_switch(node, [this, sw, node, key, epoch, actions, install] {
    channel_.call(
        [sw, epoch, key, actions, install] {
          return sw->stage_flow_rule(epoch, key, actions, install);
        },
        [this, sw, node, key, epoch, installs = actions.has_value()](
            bool staged) {
          if (!staged) {
            fail_epoch(key, epoch);
            switch_op_done(node);
            return;
          }
          channel_.call(
              [sw, epoch] { return sw->commit_epoch(epoch); },
              [this, node, key, epoch, installs](bool committed) {
                if (committed) {
                  auto& acked = slot(node).acked_flow_rules;
                  if (installs) {
                    acked[key] = epoch;
                  } else {
                    acked.erase(key);
                  }
                  on_epoch_committed(key, epoch, node);
                } else {
                  fail_epoch(key, epoch);
                }
                switch_op_done(node);
              });
        });
  });
}

void Controller::run_on_switch(int node, std::function<void()> op) {
  SwitchSlot& s = slot(node);
  if (s.busy) {
    s.queue.push_back(std::move(op));
    return;
  }
  s.busy = true;
  op();
}

void Controller::switch_op_done(int node) {
  SwitchSlot& s = slot(node);
  if (s.queue.empty()) {
    s.busy = false;
    return;
  }
  std::function<void()> next = std::move(s.queue.front());
  s.queue.pop_front();
  next();
}

void Controller::on_epoch_committed(const net::FlowKey& key,
                                    std::uint64_t epoch, int ingress_node) {
  if (epochs_.commit(key, epoch)) {
    // The acked program is the flow's newest: the flow is no longer
    // blackholed.
    blackholed_since_.erase(key);
  }
  maybe_reconcile_flow_rule(key, ingress_node);
}

void Controller::fail_epoch(const net::FlowKey& key, std::uint64_t epoch) {
  ++failed_reroutes_;
  if (const std::optional<int> fallback = epochs_.rollback(key, epoch)) {
    PLANCK_TRACE_ARGS(sim_, "controller", "epoch_fallback",
                      obs::argf("\"epoch\":%llu,\"tree\":%d",
                                static_cast<unsigned long long>(epoch),
                                *fallback));
  }
}

void Controller::maybe_reconcile_flow_rule(const net::FlowKey& key,
                                           int ingress_node) {
  // A committed-but-stale OpenFlow rule outranks every newer program in
  // the data plane (flow table beats MAC table, and the host's ARP cache
  // only matters after the rewrite is gone). Once the flow has settled —
  // nothing in flight — and its newest program is NOT the acked rule,
  // erase the rule under a fresh epoch so the data plane converges on the
  // newest program.
  if (epochs_.in_flight(key)) return;  // let the newest attempt settle
  const SwitchSlot* s = find_slot(ingress_node);
  if (s == nullptr) return;
  const auto rule_it = s->acked_flow_rules.find(key);
  if (rule_it == s->acked_flow_rules.end()) return;
  if (rule_it->second >= epochs_.newest_epoch(key)) return;  // rule is newest

  const std::uint64_t erase_epoch =
      epochs_.open(key, tree_of(key), tree_of(key));
  PLANCK_TRACE_ARGS(sim_, "controller", "reconcile_erase",
                    obs::argf("\"stale\":%llu,\"epoch\":%llu",
                              static_cast<unsigned long long>(rule_it->second),
                              static_cast<unsigned long long>(erase_epoch)));
  program_flow_rule(ingress_node, key, erase_epoch, std::nullopt,
                    kOfInstallMin);
}

void Controller::notify_port_status(int switch_node, int port, bool up) {
  // The switch's loss-of-signal interrupt becomes a reliable RPC to the
  // controller: retried on loss, bounded by the attempt ceiling.
  channel_.call([this, switch_node, port, up] {
    handle_port_status(switch_node, port, up);
    return true;
  });
}

void Controller::handle_port_status(int switch_node, int port, bool up) {
  const SwitchSlot* known = find_slot(switch_node);
  // Unchanged: a duplicate delivery of an at-least-once RPC.
  if (known == nullptr || port < 0 || known->is_down(port) != up) return;
  std::vector<bool>& down = slot(switch_node).down;
  const auto p = static_cast<std::size_t>(port);
  down.resize(std::max(down.size(), p + 1));
  down[p] = !up;
  for (const auto& handler : link_status_handlers_) {
    handler(switch_node, port, up);
  }
  if (!up) failover_dead_paths();
}

bool Controller::link_up(int node, int port) const {
  const SwitchSlot* s = find_slot(node);
  return s == nullptr || (!s->dead && !s->is_down(port));
}

bool Controller::path_alive(const net::RoutePath& path) const {
  for (const net::PathHop& hop : path.hops) {
    if (!link_up(hop.switch_node, hop.out_port)) return false;
  }
  return true;
}

int Controller::first_alive_tree(int src_host, int dst_host) const {
  for (int tree = 0; tree < routing_.num_trees(); ++tree) {
    if (path_alive(routing_.path(src_host, dst_host, tree))) return tree;
  }
  return -1;
}

void Controller::probe_switches() {
  const std::uint64_t round = ++probe_round_;
  for (int i = 0; i < graph_.num_switches(); ++i) {
    switchsim::Switch* sw = slots_[static_cast<std::size_t>(i)].sw;
    if (sw == nullptr) continue;
    const int node = graph_.switch_node(i);
    channel_.call([sw] { return sw->online(); },
                  [this, node, round](bool alive) {
                    // A dead-switch probe burns its whole retry budget
                    // (~255 ms) before failing, while later rounds keep
                    // probing every heartbeat — so completions arrive out
                    // of order, and an old slow "dead" verdict landing
                    // after a fresh "alive" one would flap the switch.
                    // Apply a verdict only if its round is newer than the
                    // last one applied for this switch.
                    std::uint64_t& applied = slot(node).probe_round;
                    if (round <= applied) {
                      ++stale_probe_results_;
                      return;
                    }
                    applied = round;
                    if (alive) {
                      mark_switch_alive(node);
                    } else {
                      mark_switch_dead(node);
                    }
                  });
  }
  enforce_blackhole_bound();
  heartbeat_timer_.schedule(config_.heartbeat_interval);
}

void Controller::mark_switch_dead(int node) {
  SwitchSlot& s = slot(node);
  if (s.dead) return;
  s.dead = true;
  for (const auto& handler : switch_status_handlers_) handler(node, false);
  // Every link the dead switch feeds is effectively down for routing.
  for (int port = 0; port < graph_.num_ports(node); ++port) {
    if (!graph_.wired(node, port)) continue;
    for (const auto& handler : link_status_handlers_) {
      handler(node, port, false);
    }
  }
  failover_dead_paths();
}

void Controller::mark_switch_alive(int node) {
  SwitchSlot& s = slot(node);
  if (!s.dead) return;
  s.dead = false;
  for (const auto& handler : switch_status_handlers_) handler(node, true);
  for (int port = 0; port < graph_.num_ports(node); ++port) {
    if (!graph_.wired(node, port)) continue;
    // Still admin-down from a port-status report.
    if (s.is_down(port)) continue;
    for (const auto& handler : link_status_handlers_) {
      handler(node, port, true);
    }
  }
  // The crash wiped the switch's soft state (flow rules, staging); only
  // the flash-backed MAC program survived. Bring it back to the current
  // epoch by reinstalling every rule the controller believes it carries.
  resync_switch(node);
}

void Controller::resync_switch(int node) {
  // The acked set is rebuilt as the reinstalls commit.
  const auto acked = std::exchange(slot(node).acked_flow_rules, {});
  for (const auto& [key, epoch] : acked) {
    ++resyncs_;
    PLANCK_TRACE_ARGS(sim_, "controller", "resync_flow_rule",
                      obs::argf("\"node\":%d", node));
    reroute_flow(key, tree_of(key), RerouteMechanism::kOpenFlow);
  }
}

void Controller::enforce_blackhole_bound() {
  for (auto it = blackholed_since_.begin(); it != blackholed_since_.end();) {
    auto& [key, since] = *it;
    const int src = net::host_id_of_ip(key.src_ip);
    const int dst = net::host_id_of_ip(key.dst_ip);
    if (src < 0 || dst < 0 || src == dst ||
        path_alive(routing_.path(src, dst, tree_of(key)))) {
      it = blackholed_since_.erase(it);  // repaired (or the path came back)
      continue;
    }
    ++it;
    const int alternate = first_alive_tree(src, dst);
    if (alternate < 0) {
      // No live alternative exists; the bound only covers repairable
      // flows, so the clock restarts when repair becomes possible.
      since = sim_.now();
      continue;
    }
    const sim::Duration window = sim_.now() - since;
    if (window > max_blackhole_observed_) max_blackhole_observed_ = window;
    PLANCK_CONTRACT(window <= kMaxBlackholeWindow,
                    "no-blackholed-flow-longer-than-T: a flow with a live "
                    "alternate tree must be repaired within the bound");
    if (!epochs_.in_flight(key) && alternate != tree_of(key)) {
      // The earlier repair fell back; try again on this heartbeat.
      ++failovers_;
      reroute_flow(key, alternate, kFailoverMechanism);
    }
  }
}

void Controller::failover_dead_paths() {
  // Candidate flows: everything ever rerouted plus whatever the (online)
  // monitoring plane currently sees. Flows only the dead equipment's own
  // collector knew about stay stuck until restore — the monitoring plane
  // shares fate with the network, as in the paper.
  std::map<net::FlowKey, int> candidates = epochs_.trees();
  for (const SwitchSlot& s : slots_) {
    const core::Collector* collector = s.collector;
    if (collector == nullptr || !collector->online()) continue;
    for (const auto& [key, rec] : collector->flow_table().flows()) {
      candidates.emplace(key, tree_of(key));
    }
  }
  for (const auto& [key, tree] : candidates) {
    const int src = net::host_id_of_ip(key.src_ip);
    const int dst = net::host_id_of_ip(key.dst_ip);
    if (src < 0 || dst < 0 || src == dst) continue;
    if (path_alive(routing_.path(src, dst, tree))) continue;
    // Start (or keep) the blackhole clock the moment the controller sees
    // the assigned path dead — the heartbeat asserts the repair bound
    // against it (enforce_blackhole_bound).
    blackholed_since_.try_emplace(key, sim_.now());
    const int alternate = first_alive_tree(src, dst);
    if (alternate < 0 || alternate == tree) continue;
    ++failovers_;
    reroute_flow(key, alternate, kFailoverMechanism);
  }
}

void Controller::subscribe_congestion(CongestionHandler handler) {
  congestion_handlers_.push_back(std::move(handler));
  if (congestion_handlers_.size() == 1) {
    // First subscriber: hook every collector in node order, relaying with
    // one control-channel latency.
    for (const SwitchSlot& s : slots_) {
      core::Collector* collector = s.collector;
      if (collector == nullptr) continue;
      sim::Simulation& collector_sim = collector->sim();
      if (&collector_sim != &sim_) {
        // Sharded engine: the collector fires on its switch's data
        // partition. Hop to the control partition first (one lookahead
        // grid step, merged at the window barrier), then take the usual
        // control-channel latency from there.
        collector->subscribe_congestion(
            [this, &collector_sim](const core::CongestionEvent& e) {
              collector_sim.post(sim_, collector_sim.cross_lookahead(),
                                 [this, e] {
                                   channel_.send([this, e] {
                                     for (const auto& h : congestion_handlers_)
                                       h(e);
                                   });
                                 });
            });
        continue;
      }
      collector->subscribe_congestion([this](const core::CongestionEvent& e) {
        channel_.send([this, e] {
          for (const auto& h : congestion_handlers_) h(e);
        });
      });
    }
  }
}

void Controller::query_link_utilization(int switch_node, int out_port,
                                        std::function<void(double)> reply,
                                        std::function<void()> on_failure) {
  const SwitchSlot* s = find_slot(switch_node);
  core::Collector* collector = s == nullptr ? nullptr : s->collector;
  if (collector == nullptr) {
    if (on_failure) sim_.schedule(0, [on_failure] { on_failure(); });
    return;
  }
  // Both legs stay fire-and-forget (the low-latency API must not grow
  // retries). The answered guard makes a duplicated reply fire once. With
  // `on_failure`, a deadline timer fires the failure callback when no reply
  // landed — loss, duplicate-then-loss, or a dead collector all surface the
  // same way — so exactly one of reply/on_failure runs, once.
  auto answered = std::make_shared<bool>(false);
  channel_.send([this, collector, out_port, reply = std::move(reply),
                 answered] {
    if (!collector->online()) return;  // a dead process never answers
    const double util = collector->link_utilization_bps(out_port);
    channel_.send([reply, util, answered] {
      if (*answered) return;  // duplicate delivery, or past the deadline
      *answered = true;
      reply(util);
    });
  });
  if (!on_failure) return;
  sim_.schedule(kQueryTimeout,
                [this, answered, on_failure = std::move(on_failure)] {
                  if (*answered) return;
                  *answered = true;
                  ++query_timeouts_;
                  PLANCK_TRACE(sim_, "controller", "query_timeout");
                  on_failure();
                });
}

}  // namespace planck::controller
