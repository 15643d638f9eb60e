#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <vector>

#include "core/flow_table.hpp"
#include "core/rate_estimator.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/route_info.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"

namespace planck::core {

/// A timestamped sample held in the collector's ring buffer (vantage-point
/// monitoring, §6.1).
struct Sample {
  sim::Time received_at = 0;
  net::Packet packet;
};

/// Per-flow rate annotation attached to a congestion event (§3.3).
struct FlowRate {
  net::FlowKey key;
  net::MacAddress src_mac = net::kMacNone;
  net::MacAddress dst_mac = net::kMacNone;
  double rate_bps = 0.0;
};

/// Event fired when a link's estimated utilization crosses the configured
/// threshold. Includes the flows using the link and their rates so the
/// receiver can act without a follow-up query (§3.3).
struct CongestionEvent {
  int switch_node = -1;  // TopologyGraph node id of the monitored switch
  int out_port = -1;     // congested output port (link)
  double utilization_bps = 0.0;
  std::int64_t capacity_bps = 0;
  sim::Time detected_at = 0;
  std::vector<FlowRate> flows;
};

/// Collector→controller backpressure (DESIGN.md §10). Under event storms
/// the collector must not melt the controller: congestion events go
/// through a bounded queue drained at the controller's modelled ingest
/// rate, and watermarks on that queue select progressively cheaper
/// operating modes. `queue_capacity = 0` disables the whole plane —
/// events dispatch synchronously, byte-identical to the legacy behaviour.
struct BackpressureConfig {
  /// Congestion-event queue capacity; 0 = no queue (legacy synchronous
  /// dispatch, the default).
  std::size_t queue_capacity = 0;
  /// One queued event is dispatched to subscribers per interval — the
  /// controller's ingest-rate model.
  sim::Duration drain_interval = sim::microseconds(200);
  /// Queue depth at which the collector starts decimating its own sample
  /// stream (only every 4th sample feeds the flow table / estimators).
  /// 0 = never.
  std::size_t sample_down_watermark = 0;
  /// Queue depth at which freshly-detected events are shed outright.
  /// 0 = never (the queue still sheds on overflow).
  std::size_t shed_watermark = 0;
  /// Queue depth at which event detection degrades to the housekeeping
  /// sweep: the per-sample fast path stops evaluating thresholds and the
  /// sweep fires at most one event per congested link per period. 0 =
  /// never.
  std::size_t sweep_watermark = 0;
};

/// Operating mode selected by the event-queue watermarks, heaviest wins.
/// Modes are entered at their watermark and left once the queue drains
/// below half of it (hysteresis against flapping).
enum class BackpressureMode {
  kNormal = 0,
  kSampleDown = 1,
  kShed = 2,
  kSweepOnly = 3,
};

struct CollectorConfig {
  EstimatorConfig estimator;
  BackpressureConfig backpressure;
  /// Utilization fraction of link capacity above which a congestion event
  /// fires.
  double congestion_threshold = 0.90;
  /// Minimum spacing of events per link, so a persistently hot link does
  /// not flood the controller.
  sim::Duration event_debounce = sim::milliseconds(1);
  /// Idle flows are evicted from the flow table after this long.
  sim::Duration flow_idle_timeout = sim::seconds(1);
  /// Housekeeping sweep period (staleness + eviction).
  sim::Duration sweep_interval = sim::milliseconds(1);
  /// Raw-sample ring capacity for the vantage-point application (§6.1);
  /// 0, the default, keeps no ring (the sample hook still sees every
  /// sample).
  std::size_t sample_ring_capacity = 0;
};

/// A Planck collector instance: attached to one switch's monitor port,
/// processes the mirrored sample stream at line rate, maintains the flow
/// table and per-link utilization, answers queries, and publishes
/// congestion events (§3.2, §4.2).
class Collector : public net::Node {
 public:
  using CongestionHandler = std::function<void(const CongestionEvent&)>;
  /// Raw per-sample hook for benches/analysis tools.
  using SampleHook = std::function<void(const Sample&)>;

  Collector(sim::Simulation& simulation, std::string name, int switch_node,
            const CollectorConfig& config);

  const std::string& name() const { return name_; }
  int switch_node() const { return switch_node_; }
  /// The partition this collector's state lives on (its switch's). The
  /// controller uses it to route congestion subscriptions across partition
  /// boundaries (Simulation::post) under the sharded engine.
  sim::Simulation& sim() { return sim_; }

  // --- sample intake ------------------------------------------------------
  void handle_packet(const net::Packet& packet, int in_port) override;

  // --- control-plane inputs (§3.3) ---------------------------------------
  /// Installs the in/out-port inference (§3.2.1). It runs when a flow
  /// record is new or its (src, dst) MAC pair changed; the record keeps
  /// the answer, so install the oracle before samples arrive. Without
  /// one, every port is unknown (-1).
  void set_port_oracle(net::PortOracle oracle) {
    port_oracle_ = std::move(oracle);
  }
  /// Installs an oracle that answers from a hand-built table, for callers
  /// without a Routing (unit tests, microbenchmarks).
  void update_route_view(net::SwitchRouteView view) {
    set_port_oracle([view = std::move(view)](net::MacAddress src,
                                             net::MacAddress dst) {
      return net::SwitchPorts{view.in_port(src, dst), view.out_port(dst)};
    });
  }
  /// Declares the capacity of the link on `out_port` >= 0 (needed to
  /// judge congestion: a port without one fires no event).
  void set_link_capacity(int out_port, std::int64_t bps) {
    port_state(out_port).capacity = bps;
  }

  // --- queries (§4.2) -----------------------------------------------------
  /// (i) Estimated utilization of the link on `out_port`, bits per second.
  /// Returns 0 while the collector is offline — a dead process answers
  /// nothing rather than serving frozen numbers.
  double link_utilization_bps(int out_port) const;
  /// (ii) Rate estimates of flows currently crossing `out_port` (empty
  /// while offline).
  std::vector<FlowRate> flows_on_link(int out_port) const;
  /// (iii) A copy of the most recent raw samples (newest last).
  std::vector<Sample> raw_samples() const;

  // --- failure plane ------------------------------------------------------
  /// Collector process crash/restore. Offline, arriving samples are lost
  /// (counted), the housekeeping sweep stops, and queries return nothing.
  /// On restore the sweep runs immediately, purging every estimate that
  /// went stale during the outage, so utilization restarts from fresh
  /// samples instead of pre-outage numbers.
  void set_online(bool online);
  bool online() const { return online_; }
  /// True when the estimates cannot be trusted: the collector is offline,
  /// or it is up but the sample stream has gone quiet for longer than
  /// kRateStaleness (e.g. the monitor cable died) while flows may still
  /// be running.
  bool data_stale() const {
    return !online_ || sim_.now() - last_sample_at_ > kRateStaleness;
  }

  const FlowTable& flow_table() const { return flows_; }

  // --- subscriptions ------------------------------------------------------
  void subscribe_congestion(CongestionHandler handler) {
    congestion_handlers_.push_back(std::move(handler));
  }
  void set_sample_hook(SampleHook hook) { sample_hook_ = std::move(hook); }

  // --- statistics ---------------------------------------------------------
  std::uint64_t samples_received() const { return samples_received_; }
  std::uint64_t events_fired() const { return events_fired_; }
  /// Samples counted while their flow's output port was unknown.
  std::uint64_t inference_misses() const { return inference_misses_; }
  std::uint64_t samples_dropped_offline() const {
    return samples_dropped_offline_;
  }
  std::uint64_t outages() const { return outages_; }
  /// Flow records removed by the idle-timeout sweep.
  std::uint64_t evictions() const { return evictions_; }

  // --- backpressure (DESIGN.md §10) --------------------------------------
  BackpressureMode backpressure_mode() const { return mode_; }
  /// Congestion events currently queued toward the controller.
  std::size_t events_queued() const { return event_queue_.size(); }
  /// Events dropped: shed-mode discards, queue overflow, and events lost
  /// in a collector crash.
  std::uint64_t events_shed() const { return events_shed_; }
  /// Events handed to subscribers from the drain (queued path only).
  std::uint64_t events_dispatched() const { return events_dispatched_; }
  /// Samples skipped by sample-down decimation.
  std::uint64_t samples_sampled_down() const { return samples_sampled_down_; }
  /// Fast-path detections suppressed while degraded to sweep-only.
  std::uint64_t events_deferred_to_sweep() const {
    return events_deferred_to_sweep_;
  }
  std::uint64_t mode_changes() const { return mode_changes_; }

  const CollectorConfig& config() const { return config_; }

 private:
  // Single-writer by design: one collector runs on one partition
  // (its switch's); nothing here is touched cross-thread.

  /// A flow whose estimate is older than this no longer contributes to
  /// link utilization.
  static constexpr sim::Duration kRateStaleness = sim::milliseconds(5);

  /// Per-port link state. `bps` is the incrementally maintained sum of
  /// fresh flow-rate estimates (the sweep removes stale ones); `flows`
  /// counts the records currently contributing a nonzero rate. When it
  /// returns to zero, `bps` is snapped to exactly 0.0 — incremental FP
  /// add/subtract is not associative, so without the snap a fully unwound
  /// port would keep a few ULPs of dust and never read as idle again.
  struct PortState {
    double bps = 0.0;
    std::uint32_t flows = 0;
    std::int64_t capacity = -1;  // -1: undeclared
    sim::Time last_event = 0;    // 0: no event yet
  };

  /// `out_port`'s state, growing ports_ to reach it (out_port >= 0).
  PortState& port_state(int out_port) {
    const auto i = static_cast<std::size_t>(out_port);
    if (i >= ports_.size()) ports_.resize(i + 1);
    return ports_[i];
  }
  /// False for a negative port or one never written.
  bool has_port(int out_port) const {
    return out_port >= 0 && static_cast<std::size_t>(out_port) < ports_.size();
  }

  /// Threshold + debounce check for `out_port`; `from_sweep` bypasses the
  /// sweep-only suppression (the sweep is the one allowed to fire then).
  void maybe_fire_event(int out_port, bool from_sweep = false);
  /// Routes a detected event to subscribers: synchronously when the
  /// backpressure plane is off, else through the bounded queue.
  void emit_event(CongestionEvent event);
  void drain_event();
  void update_backpressure_mode();
  void sweep();
  /// Registers this collector's metrics with the telemetry plane, if one
  /// is installed on the simulation (DESIGN.md §9).
  void register_metrics();
  /// Replaces `rec`'s utilization contribution with `rate`, keeping the
  /// per-port aggregate and contributor count consistent.
  void set_contribution(FlowRecord& rec, double rate);
  /// Unwinds a contribution of `bps` from `out_port` (stale purge, idle
  /// eviction, or reroute migration). Snaps the aggregate to exactly zero
  /// when the last contributor leaves.
  void release_contribution(int out_port, double bps);

  sim::Simulation& sim_;
  std::string name_;
  int switch_node_;
  CollectorConfig config_;

  net::PortOracle port_oracle_ = [](net::MacAddress, net::MacAddress) {
    return net::SwitchPorts{};
  };
  FlowTable flows_;

  std::vector<PortState> ports_;  // by output port

  // The raw-sample ring: sample_ring_capacity slots, reserved by the
  // first sample, overwritten oldest-first once full.
  std::vector<Sample> ring_;
  std::size_t ring_oldest_ = 0;  // slot of the oldest sample once full
  std::vector<CongestionHandler> congestion_handlers_;
  SampleHook sample_hook_;

  std::uint64_t samples_received_ = 0;
  std::uint64_t events_fired_ = 0;
  std::uint64_t inference_misses_ = 0;
  std::uint64_t samples_dropped_offline_ = 0;
  std::uint64_t outages_ = 0;
  std::uint64_t evictions_ = 0;
  bool online_ = true;
  sim::Time last_sample_at_ = 0;

  std::uint64_t samples_traced_ = 0;  // last samples_received_ put on a
                                      // trace counter track

  // --- backpressure state (DESIGN.md §10) --------------------------------
  BackpressureMode mode_ = BackpressureMode::kNormal;
  // A list allocates nothing until an event queues (backpressure on).
  std::list<CongestionEvent> event_queue_;
  std::uint64_t events_shed_ = 0;
  std::uint64_t events_dispatched_ = 0;
  std::uint64_t samples_sampled_down_ = 0;
  std::uint64_t events_deferred_to_sweep_ = 0;
  std::uint64_t mode_changes_ = 0;
  std::uint64_t sample_down_counter_ = 0;

  sim::Timer sweep_timer_;
  sim::Timer drain_timer_;
};

}  // namespace planck::core
