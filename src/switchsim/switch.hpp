#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/frame_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "switchsim/rule_table.hpp"
#include "switchsim/shared_buffer.hpp"

namespace planck::switchsim {

/// Static configuration of a simulated switch.
struct SwitchConfig {
  BufferConfig buffer;

  /// Buffer cap applied to a port when it is configured as a monitor port.
  /// Default models the fixed ~4 MB allocation the paper infers for the
  /// IBM G8264 (Figure 9). The Table-1 "minbuffer" configuration sets this
  /// to a couple of frames.
  sim::Bytes monitor_port_cap = sim::mebibytes(4);

  /// Maintain per-5-tuple forwarding counters (NetFlow-style, §2.3), which
  /// the polling TE baselines read (PollTe requires them). Planck itself
  /// never uses these, so they are off unless a scheme asks for them.
  bool flow_accounting = false;

  /// sFlow-style control-plane sampling (§2.1): forward one in N packets
  /// to the control plane, capped at a max rate by the switch CPU / PCI
  /// path (300 samples/s on the G8264 per OpenSample). 0 disables.
  std::uint32_t sflow_one_in_n = 0;
  double sflow_max_samples_per_sec = 300.0;
  sim::Duration sflow_control_delay = sim::milliseconds(1);

  /// Seed of the switch's mirror-jitter generator.
  std::uint64_t seed = 0x9e3779b9;
};

/// Per-port traffic counters.
struct PortCounters {
  sim::Packets rx_packets{0};
  sim::Bytes rx_bytes{0};
  sim::Packets tx_packets{0};
  sim::Bytes tx_bytes{0};
  /// Packets refused admission to this port's queue (tail drop).
  sim::Packets drops{0};
  sim::Bytes drop_bytes{0};
};

/// Per-5-tuple byte/packet counters, pollable by measurement baselines
/// (§2.3: the "flow counters" that Hedera/DevoFlow-style systems read).
struct RuleCounters {
  sim::Packets packets{0};
  sim::Bytes bytes{0};
};

/// An output-queued shared-buffer switch with port mirroring.
///
/// Forwarding pipeline (§4.1): exact-match flow table (highest priority,
/// used by OpenFlow reroutes), then the destination-MAC table (the PAST
/// routing state). A flow rule may rewrite the destination MAC and leave
/// the output port to be re-resolved from the MAC table — the rewrite+goto
/// idiom. When mirroring is enabled, every forwarded packet is also
/// replicated onto the monitor port, where it competes for the monitor
/// port's (capped) buffer; replica drops are what turns oversubscribed
/// mirroring into sampling (§3.1).
class Switch : public net::Node {
 public:
  using SFlowHandler = std::function<void(
      const net::Packet&, int in_port, int out_port, std::uint32_t rate)>;
  /// Loss-of-signal notification: the switch noticed a local port change.
  /// The testbed forwards these to the controller over the (lossy) control
  /// channel; a crashed switch fires nothing.
  using PortStatusHandler = std::function<void(int port, bool up)>;

  Switch(sim::Simulation& simulation, std::string name, int num_ports,
         const SwitchConfig& config);

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Attaches the outgoing half of the cable on `port`.
  void attach_link(int port, net::Link* link);
  /// The outgoing half of the cable on `port`; nullptr while unwired.
  net::Link* link(int port) const {
    return ports_[static_cast<std::size_t>(port)].link;
  }

  const std::string& name() const { return name_; }
  int num_ports() const { return static_cast<int>(ports_.size()); }

  // --- data plane -------------------------------------------------------
  void handle_packet(const net::Packet& packet, int in_port) override;

  /// Enqueues a packet directly on an output port (controller packet-out;
  /// used for the spoofed-ARP reroute, §6.2).
  void inject(const net::Packet& packet, int out_port);

  // --- configuration ----------------------------------------------------
  RuleTable& rules() { return rules_; }
  const RuleTable& rules() const { return rules_; }

  // --- epoch'd control plane (DESIGN.md §10) ----------------------------
  /// Opens (or re-opens, idempotently) staging for `epoch`'s route
  /// program. Returns false while offline or when the program is stale.
  bool stage_epoch(std::uint64_t epoch);
  /// Stages a 5-tuple rule edit into `epoch`'s program: a reroute rule, or
  /// with `actions` empty the removal of one (epoch-manager reconciliation
  /// of a stale reroute). The edit joins the program only after
  /// `install_latency` (the TCAM write); a commit that arrives earlier is
  /// deferred until every pending install of the program has landed, so a
  /// half-written program never goes live.
  bool stage_flow_rule(std::uint64_t epoch, const net::FlowKey& key,
                       const std::optional<RuleActions>& actions,
                       sim::Duration install_latency);
  /// Commit RPC: applies the staged program's edits in one step, deferred
  /// past any pending installs. Returns false — no ack, so the
  /// controller's RPC retries and eventually falls back to last-good —
  /// while offline or when `epoch` is not the staged program.
  bool commit_epoch(std::uint64_t epoch);

  std::uint64_t committed_epoch() const { return rules_.committed_epoch(); }
  /// Programs committed live, for the benches.
  std::uint64_t epochs_committed() const { return epochs_committed_; }

  /// Enables mirroring of all forwarded traffic to `monitor_port`
  /// (-1 disables). Applies the monitor buffer cap to that port.
  void set_mirroring(int monitor_port);
  int monitor_port() const { return monitor_port_; }

  void set_sflow_handler(SFlowHandler handler) {
    sflow_handler_ = std::move(handler);
  }

  // --- failure plane ----------------------------------------------------
  /// Administrative port state (cable pull / port disable). Bringing a port
  /// down flushes its output queue (enqueued frames are lost), downs the
  /// attached link so in-flight frames die, and fires the port-status
  /// handler — the ASIC's loss-of-signal interrupt.
  void set_port_admin(int port, bool up);
  bool port_up(int port) const {
    return ports_[static_cast<std::size_t>(port)].admin_up;
  }
  void set_port_status_handler(PortStatusHandler handler) {
    port_status_handler_ = std::move(handler);
  }

  /// Whole-switch crash/restore. Offline, the switch forwards nothing,
  /// answers no control-plane RPC, and emits no notifications; its PHYs
  /// stay up (a wedged data plane — the worst case for detection, which
  /// must come from the controller's health monitor). Rules survive a
  /// restart, like config restored from flash.
  void set_online(bool online);
  bool online() const { return online_; }

  /// Frames dropped by the failure plane: flushed from queues on port-down,
  /// refused while the switch was offline or a port was disabled.
  std::uint64_t fault_drops() const { return fault_drops_; }

  // --- observability ----------------------------------------------------
  /// The port's counters, with a lone frame whose serialization has
  /// ended counted as sent even if the port has not settled it yet.
  PortCounters counters(int port) const {
    const Port& p = ports_[static_cast<std::size_t>(port)];
    PortCounters c = p.counters;
    if (ended(p)) {
      ++c.tx_packets;
      c.tx_bytes += p.wire_bytes;
    }
    return c;
  }
  /// Packets dropped because no rule matched.
  std::uint64_t no_route_drops() const { return no_route_drops_; }
  /// Mirror replicas dropped at the monitor port (the implicit sampler).
  std::uint64_t mirror_drops() const { return mirror_drops_; }
  std::uint64_t mirror_sent() const { return mirror_sent_; }

  SharedBuffer& buffer() { return buffer_; }
  const SharedBuffer& buffer() const { return buffer_; }

  /// Bytes and frames the port holds: its waiting queue plus the frame
  /// still serializing on its wire.
  sim::Bytes queue_depth_bytes(int port) const {
    const Port& p = ports_[static_cast<std::size_t>(port)];
    return buffer_.queue_bytes(port) -
           (ended(p) ? p.wire_bytes : sim::Bytes{0});
  }
  std::size_t queue_depth_packets(int port) const {
    const Port& p = ports_[static_cast<std::size_t>(port)];
    return p.queue.size() +
           (p.wire_bytes > sim::Bytes{0} && !ended(p) ? 1 : 0);
  }

  /// NetFlow-style per-flow byte/packet counters (only when
  /// flow_accounting). Polling baselines read this map.
  const std::map<net::FlowKey, RuleCounters>& flow_counters() const {
    return flow_counters_;
  }

  const SwitchConfig& config() const { return config_; }

 private:
  struct Port {
    explicit Port(sim::FramePool& pool) : queue(pool) {}

    net::Link* link = nullptr;
    sim::FrameQueue queue;  // frames waiting for the wire, in blocks from
                            // the partition's frame pool
    /// The frame last put on the wire: when its serialization ends, and
    /// its bytes until they are counted sent and released (0 after).
    sim::Time wire_end = 0;
    sim::Bytes wire_bytes{0};
    /// An end-of-serialization event is scheduled for wire_end; without
    /// one the frame is lone and the port settles it lazily.
    bool end_scheduled = false;
    bool admin_up = true;
    PortCounters counters;
  };

  /// True when a lone frame (no end event) has ended but is unsettled.
  bool ended(const Port& p) const {
    return !p.end_scheduled && p.wire_bytes > sim::Bytes{0} &&
           p.wire_end <= sim_.now();
  }

  /// Resolves the output port and applies rewrites. Returns -1 on miss.
  int route(net::Packet& packet);

  /// Performs the deferred-or-immediate commit of the staged program.
  bool finish_commit(std::uint64_t epoch);

  /// Registers this switch's gauges with the telemetry plane, if one is
  /// installed on the simulation (DESIGN.md §9).
  void register_metrics();

  void enqueue(int port, const net::Packet& packet, bool is_mirror);
  void flush_queue(int port);
  /// Puts `frame` on the port's idle wire.
  void start_tx(int port, const net::Packet& frame);
  /// Schedules the end of the frame on the wire, unless one is scheduled
  /// or nothing waits on it: no frame queued behind, no shared-pool bytes.
  void maybe_schedule_end(int port);
  void finish_tx(int port);
  /// Counts the frame on the wire, whose end has passed, as sent and
  /// releases its buffer bytes.
  void settle(int port);
  void maybe_sflow_sample(const net::Packet& packet, int in_port,
                          int out_port);

  sim::Simulation& sim_;
  std::string name_;
  SwitchConfig config_;
  SharedBuffer buffer_;
  std::vector<Port> ports_;
  RuleTable rules_;
  int monitor_port_ = -1;
  bool online_ = true;
  /// Staged edits still in their TCAM-write latency window, and whether a
  /// commit RPC already arrived for the staged program (the commit then
  /// happens when the last install lands).
  int staged_pending_installs_ = 0;
  bool commit_requested_ = false;
  std::uint64_t epochs_committed_ = 0;
  PortStatusHandler port_status_handler_;
  std::uint64_t fault_drops_ = 0;

  std::uint64_t no_route_drops_ = 0;
  std::uint64_t mirror_drops_ = 0;
  std::uint64_t mirror_sent_ = 0;

  std::map<net::FlowKey, RuleCounters> flow_counters_;

  SFlowHandler sflow_handler_;
  std::uint64_t sflow_counter_ = 0;
  double sflow_tokens_ = 0.0;
  sim::Time sflow_last_refill_ = 0;
  sim::Rng rng_;
};

}  // namespace planck::switchsim
