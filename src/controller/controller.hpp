#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "controller/control_channel.hpp"
#include "controller/epoch_manager.hpp"
#include "controller/routing.hpp"
#include "core/collector.hpp"
#include "net/packet.hpp"
#include "net/route_info.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"
#include "switchsim/switch.hpp"
#include "tcp/host.hpp"

namespace planck::controller {

/// How a flow is moved to an alternate pre-installed path (§6.2).
enum class RerouteMechanism {
  /// Spoofed unicast ARP request updates the source host's ARP cache; no
  /// switch state is touched. Fast (~2.5-3.5 ms response in the paper).
  kArp,
  /// An OpenFlow rule at the source's ingress switch rewrites the
  /// destination MAC. Slower (~4-9 ms) because of TCAM install latency.
  kOpenFlow,
};

/// Contract bound T (DESIGN.md §10): a flow whose assigned path is dead
/// while a live alternate tree exists must be repaired within this
/// window, heartbeat-asserted via PLANCK_CONTRACT. It covers one
/// fully-exhausted reroute RPC budget (~255 ms of retries against a
/// freshly-dead target) plus a heartbeat-triggered retry.
inline constexpr sim::Duration kMaxBlackholeWindow = sim::milliseconds(300);

struct ControllerConfig {
  /// The management network every controller <-> switch/collector message
  /// crosses: a 150 us one-way RPC, with loss/duplication/latency-spike
  /// knobs and the retry/backoff policy for reliable calls.
  ControlChannelConfig channel;
  /// Period of the health monitor that RPC-probes every switch. A switch
  /// whose probe exhausts its retry budget is declared dead and its flows
  /// failed over (counter-staleness detection: a wedged switch sends no
  /// port-status, so liveness must be inferred). 0 disables probing.
  sim::Duration heartbeat_interval = sim::milliseconds(10);
  std::uint64_t seed = 1;
};

/// The Planck SDN controller (§3.3, §4.1): installs PAST + shadow-MAC
/// routes and mirror rules, keeps collectors informed of topology and
/// forwarding state, relays collector events to applications, and executes
/// reroutes via ARP spoofing or OpenFlow.
class Controller {
 public:
  using CongestionHandler =
      std::function<void(const core::CongestionEvent&)>;
  /// Fired when the controller's view of a link changes: (switch node,
  /// out port, up). Both directions of a dead cable are reported, each
  /// from its transmitting switch's perspective.
  using LinkStatusHandler = std::function<void(int node, int port, bool up)>;
  /// Fired when the health monitor declares a switch dead or alive again.
  using SwitchStatusHandler = std::function<void(int node, bool alive)>;

  Controller(sim::Simulation& simulation, const net::TopologyGraph& graph,
             const ControllerConfig& config);

  // --- testbed wiring (before install_routes) ----------------------------
  void attach_switch(int graph_node, switchsim::Switch* sw,
                     int monitor_port);
  void attach_collector(int graph_node, core::Collector* collector);
  void attach_host(int host_index, tcp::Host* host);

  /// Pushes routing state everywhere (§4.1): each switch's MAC oracle
  /// (Routing::mac_oracle), which answers on demand for every tree
  /// (including shadow trees and egress rewrites), mirror configuration,
  /// base-tree ARP resolution on every host, and each collector's link
  /// capacities plus a port oracle that asks Routing::ports_at on demand.
  void install_routes();

  const Routing& routing() const { return routing_; }
  const net::TopologyGraph& graph() const { return graph_; }

  /// The tree a flow was last routed onto (0 until rerouted).
  int tree_of(const net::FlowKey& key) const { return epochs_.tree_of(key); }

  /// Moves `key` onto `tree` under a fresh route-program epoch (returned).
  /// Destination/source hosts are derived from the flow's addresses. The
  /// assignment is recorded optimistically and reconciled by the epoch
  /// manager: if the program fails to survive the channel it falls back to
  /// the flow's last-good tree (DESIGN.md §10).
  std::uint64_t reroute_flow(const net::FlowKey& key, int tree,
                             RerouteMechanism mechanism);

  /// Subscribes an application to congestion events from every collector;
  /// delivery incurs one control-channel latency (§3.3).
  void subscribe_congestion(CongestionHandler handler);

  /// Forwards a statistics query to the right collector; the reply arrives
  /// after a control-channel round trip. This is the drop-in low-latency
  /// statistics API of §3.3. Both legs are fire-and-forget and `reply`
  /// runs at most once, even when the channel duplicates it. Without
  /// `on_failure` a lost message silently swallows the query; with it, a
  /// reply missing after a 2 ms deadline — or an unattached/offline
  /// collector — fires the failure callback exactly once instead.
  void query_link_utilization(int switch_node, int out_port,
                              std::function<void(double)> reply,
                              std::function<void()> on_failure = nullptr);

  std::uint64_t arp_reroutes() const { return arp_reroutes_; }
  std::uint64_t openflow_reroutes() const { return openflow_reroutes_; }
  /// Link-utilization queries that hit the reply deadline.
  std::uint64_t query_timeouts() const { return query_timeouts_; }

  // --- epoch'd control plane (DESIGN.md §10) ----------------------------
  const EpochManager& epochs() const { return epochs_; }
  /// Recovered switches re-synced to the current epoch (flow rules lost in
  /// the crash reinstalled under fresh epochs).
  std::uint64_t resyncs() const { return resyncs_; }
  /// Heartbeat probe completions discarded for being stale (sequencing).
  std::uint64_t stale_probe_results() const { return stale_probe_results_; }
  /// Longest observed dead-assigned-path window for any flow that had a
  /// live alternate tree (must stay under kMaxBlackholeWindow).
  sim::Duration max_blackhole_observed() const {
    return max_blackhole_observed_;
  }
  /// Flows currently believed blackholed (assigned path dead).
  std::size_t blackholed_flows() const { return blackholed_since_.size(); }

  // --- failure plane ----------------------------------------------------
  /// Entry point for a switch's loss-of-signal notification. Models the
  /// switch -> controller port-status RPC over the lossy channel (with
  /// retries), then updates the link view and fails affected flows over.
  void notify_port_status(int switch_node, int port, bool up);

  /// The controller's current belief about the link transmitting from
  /// (node, port): false once a port-status reported it down or either
  /// endpoint switch is believed dead.
  bool link_up(int node, int port) const;
  bool switch_alive(int node) const {
    const SwitchSlot* s = find_slot(node);
    return s == nullptr || !s->dead;
  }
  /// True when every hop of `path` crosses believed-alive equipment.
  bool path_alive(const net::RoutePath& path) const;
  /// Lowest-numbered tree with a live path from src to dst, or -1 when
  /// every pre-installed alternative is dead.
  int first_alive_tree(int src_host, int dst_host) const;

  void subscribe_link_status(LinkStatusHandler handler) {
    link_status_handlers_.push_back(std::move(handler));
  }
  void subscribe_switch_status(SwitchStatusHandler handler) {
    switch_status_handlers_.push_back(std::move(handler));
  }

  ControlChannel& channel() { return channel_; }
  const ControlChannel& channel() const { return channel_; }

  /// Flows moved off dead equipment by the controller itself.
  std::uint64_t failovers() const { return failovers_; }
  /// Reroute RPCs that exhausted their retry budget (target switch dead).
  std::uint64_t failed_reroutes() const { return failed_reroutes_; }

 private:
  /// What the controller keeps per switch. A slot allocates nothing until
  /// it is used.
  struct SwitchSlot {
    switchsim::Switch* sw = nullptr;  // nullptr until attached
    int monitor_port = -1;
    core::Collector* collector = nullptr;
    bool dead = false;  // declared dead by the health monitor
    /// A route-program op is in flight; `queue` holds the ops waiting for
    /// it, FIFO (see run_on_switch).
    bool busy = false;
    std::list<std::function<void()>> queue;
    /// Heartbeat probe sequencing: a completion from round R is applied
    /// only if R is newer than this, the last round applied.
    std::uint64_t probe_round = 0;
    /// Flow rules the switch acked end-to-end: the resync set for crash
    /// recovery, and the stale-rule set for reconciliation.
    std::map<net::FlowKey, std::uint64_t> acked_flow_rules;
    /// By port, growing on write: a port-status report took it down.
    std::vector<bool> down;

    bool is_down(int port) const {
      return port >= 0 && static_cast<std::size_t>(port) < down.size() &&
             down[static_cast<std::size_t>(port)];
    }
  };

  /// `node`'s slot; nullptr for a host or a node outside the graph.
  const SwitchSlot* find_slot(int node) const {
    if (node < 0 || node >= graph_.num_nodes() || !graph_.is_switch(node)) {
      return nullptr;
    }
    return &slots_[static_cast<std::size_t>(graph_.switch_index(node))];
  }
  /// The slot of switch `node`; throws std::out_of_range for a host.
  SwitchSlot& slot(int node) {
    return slots_.at(static_cast<std::size_t>(graph_.switch_index(node)));
  }

  void register_metrics();

  /// Applies a port-status message after it survived the channel. Duplicate
  /// deliveries (at-least-once RPC) are idempotent.
  void handle_port_status(int switch_node, int port, bool up);
  void probe_switches();
  void mark_switch_dead(int node);
  void mark_switch_alive(int node);
  /// Scans every flow the control plane knows about (every flow ever
  /// rerouted plus the online collectors' flow tables) and moves those
  /// whose current path crosses dead equipment onto the first surviving
  /// tree.
  void failover_dead_paths();

  // --- epoch'd control plane (DESIGN.md §10) ----------------------------
  /// Serializes route-program operations per switch: at most one
  /// stage/commit exchange is in flight against a switch at a time, so a
  /// later program can never supersede an earlier one's open edit list
  /// mid-install. Ops queue FIFO and run when the slot frees.
  void run_on_switch(int node, std::function<void()> op);
  void switch_op_done(int node);
  /// The one stage→commit RPC chain: through the per-switch queue, stages
  /// a flow-rule edit (`actions` empty: erase) into `epoch`'s program on
  /// switch `node` with a TCAM write of `install`, commits it, and on the
  /// ack records or forgets the rule in the slot's acked_flow_rules.
  void program_flow_rule(int node, const net::FlowKey& key,
                         std::uint64_t epoch,
                         const std::optional<switchsim::RuleActions>& actions,
                         sim::Duration install);
  /// End-to-end ack bookkeeping for `epoch`; reconciles the data plane
  /// when the acked program turned out stale.
  void on_epoch_committed(const net::FlowKey& key, std::uint64_t epoch,
                          int ingress_node);
  /// Failsafe: the program failed — roll the optimistic assignment back to
  /// the flow's last-good tree.
  void fail_epoch(const net::FlowKey& key, std::uint64_t epoch);
  /// Erases an obsolete acked flow rule that would outrank newer route
  /// state (a stale OpenFlow program under a newer ARP one), under a fresh
  /// epoch through the per-switch queue.
  void maybe_reconcile_flow_rule(const net::FlowKey& key, int ingress_node);
  /// Reinstalls a recovered switch's crash-lost flow rules under fresh
  /// epochs, bringing it to the current epoch.
  void resync_switch(int node);
  /// Heartbeat-time contract check: no flow with a live alternate tree
  /// stays blackholed past kMaxBlackholeWindow; retries repairs
  /// that fell back.
  void enforce_blackhole_bound();

  sim::Simulation& sim_;
  const net::TopologyGraph& graph_;
  ControllerConfig config_;
  Routing routing_;
  sim::Rng rng_;
  ControlChannel channel_;

  std::vector<SwitchSlot> slots_;  // by switch index, which is node order
  std::vector<tcp::Host*> hosts_;  // by host index

  std::vector<CongestionHandler> congestion_handlers_;
  std::vector<LinkStatusHandler> link_status_handlers_;
  std::vector<SwitchStatusHandler> switch_status_handlers_;

  sim::Timer heartbeat_timer_;

  EpochManager epochs_;
  /// First time the controller saw each flow's assigned path dead.
  std::map<net::FlowKey, sim::Time> blackholed_since_;
  /// The latest heartbeat round (see SwitchSlot::probe_round).
  std::uint64_t probe_round_ = 0;

  std::uint64_t arp_reroutes_ = 0;
  std::uint64_t openflow_reroutes_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t failed_reroutes_ = 0;
  std::uint64_t stale_probe_results_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t query_timeouts_ = 0;
  sim::Duration max_blackhole_observed_ = 0;
};

}  // namespace planck::controller
