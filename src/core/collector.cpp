#include "core/collector.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

#include "obs/obs.hpp"

namespace planck::core {

namespace {
/// Sample-down backpressure estimates one sample in this many.
constexpr std::uint64_t kSampleDownFactor = 4;
}  // namespace

Collector::Collector(sim::Simulation& simulation, std::string name,
                     int switch_node, const CollectorConfig& config)
    : sim_(simulation),
      name_(std::move(name)),
      switch_node_(switch_node),
      config_(config),
      flows_(config.estimator),
      sweep_timer_(simulation, [this] { sweep(); }),
      drain_timer_(simulation, [this] { drain_event(); }) {
  register_metrics();
  sweep_timer_.schedule(config_.sweep_interval);
}

void Collector::register_metrics() {
  obs::Telemetry* telemetry = sim_.telemetry();
  if (telemetry == nullptr) return;
  obs::MetricRegistry& reg = telemetry->metrics();
  const std::string comp = "collector." + name_;
  reg.gauge(comp, "samples_received",
            [this] { return static_cast<double>(samples_received_); });
  reg.gauge(comp, "samples_per_sec", [this] {
    const double elapsed = sim::to_seconds(sim_.now());
    return elapsed > 0.0 ? static_cast<double>(samples_received_) / elapsed
                         : 0.0;
  });
  reg.gauge(comp, "events_fired",
            [this] { return static_cast<double>(events_fired_); });
  reg.gauge(comp, "inference_misses",
            [this] { return static_cast<double>(inference_misses_); });
  reg.gauge(comp, "samples_dropped_offline",
            [this] { return static_cast<double>(samples_dropped_offline_); });
  reg.gauge(comp, "flow_table_size",
            [this] { return static_cast<double>(flows_.size()); });
  reg.gauge(comp, "backpressure_mode",
            [this] { return static_cast<double>(mode_); });
  reg.gauge(comp, "events_queued",
            [this] { return static_cast<double>(event_queue_.size()); });
  reg.gauge(comp, "events_shed",
            [this] { return static_cast<double>(events_shed_); });
  reg.gauge(comp, "events_dispatched",
            [this] { return static_cast<double>(events_dispatched_); });
  reg.gauge(comp, "samples_sampled_down",
            [this] { return static_cast<double>(samples_sampled_down_); });
  reg.gauge(comp, "evictions",
            [this] { return static_cast<double>(evictions_); });
}

void Collector::set_online(bool online) {
  if (online_ == online) return;
  online_ = online;
  PLANCK_TRACE(sim_, "collector." + name_, online ? "online" : "offline");
  if (!online) {
    ++outages_;
    sweep_timer_.cancel();  // the process is dead; housekeeping stops too
    // Queued-but-undelivered events die with the process.
    events_shed_ += event_queue_.size();
    event_queue_.clear();
    drain_timer_.cancel();
    if (mode_ != BackpressureMode::kNormal) {
      mode_ = BackpressureMode::kNormal;
      ++mode_changes_;
    }
  } else {
    // Restart: purge everything that went stale during the outage before
    // answering queries again, then resume the periodic sweep.
    sweep();
  }
}

void Collector::set_contribution(FlowRecord& rec, double rate) {
  PortState& util = port_state(rec.out_port);
  if (rec.contributing_bps == 0.0 && rate != 0.0) ++util.flows;
  util.bps += rate - rec.contributing_bps;
  rec.contributing_bps = rate;
}

void Collector::release_contribution(int out_port, double bps) {
  if (bps <= 0.0 || !has_port(out_port)) return;
  PortState& util = port_state(out_port);
  util.bps -= bps;
  if (util.flows > 0) --util.flows;
  if (util.flows == 0) util.bps = 0.0;  // no contributors: no FP dust
}

void Collector::handle_packet(const net::Packet& packet, int /*in_port*/) {
  if (!online_) {
    ++samples_dropped_offline_;
    return;
  }
  ++samples_received_;
  last_sample_at_ = sim_.now();

  const std::size_t capacity = config_.sample_ring_capacity;
  if (capacity > 0) {
    const Sample* newest = nullptr;
    if (ring_.size() < capacity) {
      if (ring_.empty()) ring_.reserve(capacity);
      newest = &ring_.emplace_back(Sample{sim_.now(), packet});
    } else {
      Sample& slot = ring_[ring_oldest_];
      slot = Sample{sim_.now(), packet};
      newest = &slot;
      ring_oldest_ = (ring_oldest_ + 1) % capacity;
    }
    if (sample_hook_) sample_hook_(*newest);
  } else if (sample_hook_) {
    sample_hook_(Sample{sim_.now(), packet});  // no ring kept
  }

  if (packet.proto == net::Protocol::kArp) return;

  // Sample-down backpressure: under event-queue pressure only every Nth
  // sample pays for flow-table and estimator work (the ring above still
  // sees everything — raw capture is cheap, estimation is not).
  if (mode_ >= BackpressureMode::kSampleDown &&
      ++sample_down_counter_ % kSampleDownFactor != 0) {
    ++samples_sampled_down_;
    return;
  }

  FlowRecord& rec = flows_.upsert(packet.flow_key(), sim_.now());
  // Port inference (§3.2.1) depends on the MAC pair alone, so it runs only
  // for a new record or when the pair changed (a reroute onto another
  // tree); otherwise the record already holds the oracle's answer.
  if (rec.samples == 0 || rec.src_mac != packet.src_mac ||
      rec.dst_mac != packet.dst_mac) {
    rec.src_mac = packet.src_mac;
    rec.dst_mac = packet.dst_mac;
    const net::SwitchPorts ports = port_oracle_(packet.src_mac, packet.dst_mac);
    rec.in_port = ports.in;
    if (ports.out != rec.out_port) {
      // The flow moved to a different link: fully unwind its contribution
      // from the old port before it starts contributing to the new one.
      release_contribution(rec.out_port, rec.contributing_bps);
      rec.contributing_bps = 0.0;
      rec.out_port = ports.out;
    }
  }
  ++rec.samples;
  rec.sample_bytes += packet.payload;
  if (rec.out_port < 0) ++inference_misses_;

  if (packet.payload == 0) return;  // pure ACKs carry no byte-count delta

  if (rec.estimator.add_sample(sim_.now(), packet.seq, packet.payload) &&
      rec.out_port >= 0) {
    set_contribution(rec, rec.estimator.rate_bps());
    maybe_fire_event(rec.out_port);
  }
}

double Collector::link_utilization_bps(int out_port) const {
  if (!online_ || !has_port(out_port)) return 0.0;
  return std::max(0.0, ports_[static_cast<std::size_t>(out_port)].bps);
}

std::vector<FlowRate> Collector::flows_on_link(int out_port) const {
  std::vector<FlowRate> out;
  if (!online_) return out;
  for (const auto& [key, rec] : flows_.flows()) {
    if (rec.out_port != out_port || rec.contributing_bps <= 0.0) continue;
    out.push_back(FlowRate{key, rec.src_mac, rec.dst_mac, rec.rate_bps()});
  }
  // Rate-descending with a key tiebreak: congestion events annotate flows
  // in this order and TE consumes them in it, so ties must be stable.
  std::sort(out.begin(), out.end(), [](const FlowRate& a, const FlowRate& b) {
    if (a.rate_bps != b.rate_bps) return a.rate_bps > b.rate_bps;
    return a.key < b.key;
  });
  return out;
}

std::vector<Sample> Collector::raw_samples() const {
  std::vector<Sample> out;
  out.reserve(ring_.size());
  const auto oldest = ring_.begin() + static_cast<std::ptrdiff_t>(ring_oldest_);
  std::rotate_copy(ring_.begin(), oldest, ring_.end(), std::back_inserter(out));
  return out;
}

void Collector::maybe_fire_event(int out_port, bool from_sweep) {
  if (mode_ == BackpressureMode::kSweepOnly && !from_sweep) {
    // Degraded to sweep-only: the per-sample fast path stops evaluating;
    // the housekeeping sweep fires at most one event per link per period.
    ++events_deferred_to_sweep_;
    return;
  }
  if (!has_port(out_port)) return;
  PortState& state = port_state(out_port);
  if (state.capacity < 0) return;
  const double util = link_utilization_bps(out_port);
  if (util < config_.congestion_threshold *
                 static_cast<double>(state.capacity)) {
    return;
  }
  sim::Time& last = state.last_event;
  if (last != 0 && sim_.now() - last < config_.event_debounce) return;
  last = sim_.now();

  CongestionEvent event;
  event.switch_node = switch_node_;
  event.out_port = out_port;
  event.utilization_bps = util;
  event.capacity_bps = state.capacity;
  event.detected_at = sim_.now();
  event.flows = flows_on_link(out_port);
  ++events_fired_;
  PLANCK_TRACE_ARGS(sim_, "collector." + name_, "congestion",
                    obs::argf("\"out_port\":%d,\"util_gbps\":%.3f,"
                              "\"flows\":%zu",
                              out_port, util / 1e9, event.flows.size()));
  emit_event(std::move(event));
}

void Collector::emit_event(CongestionEvent event) {
  const BackpressureConfig& bp = config_.backpressure;
  if (bp.queue_capacity == 0) {
    // Backpressure plane off: legacy synchronous dispatch.
    for (const auto& handler : congestion_handlers_) handler(event);
    return;
  }
  if (mode_ >= BackpressureMode::kShed ||
      event_queue_.size() >= bp.queue_capacity) {
    ++events_shed_;
    PLANCK_TRACE_ARGS(sim_, "collector." + name_, "event_shed",
                      obs::argf("\"queued\":%zu", event_queue_.size()));
    update_backpressure_mode();
    return;
  }
  event_queue_.push_back(std::move(event));
  update_backpressure_mode();
  if (!drain_timer_.pending()) drain_timer_.schedule(bp.drain_interval);
}

void Collector::drain_event() {
  if (!online_ || event_queue_.empty()) return;
  const CongestionEvent event = std::move(event_queue_.front());
  event_queue_.pop_front();
  ++events_dispatched_;
  for (const auto& handler : congestion_handlers_) handler(event);
  update_backpressure_mode();
  if (!event_queue_.empty()) {
    drain_timer_.schedule(config_.backpressure.drain_interval);
  }
}

void Collector::update_backpressure_mode() {
  const BackpressureConfig& bp = config_.backpressure;
  const std::size_t depth = event_queue_.size();
  // Heaviest mode whose watermark the depth reaches wins; a mode already
  // engaged persists until the queue drains below half its watermark.
  auto holds = [&](std::size_t watermark, bool engaged) {
    if (watermark == 0) return false;
    return depth >= watermark || (engaged && depth >= (watermark + 1) / 2);
  };
  BackpressureMode target = BackpressureMode::kNormal;
  if (holds(bp.sample_down_watermark,
            mode_ >= BackpressureMode::kSampleDown)) {
    target = BackpressureMode::kSampleDown;
  }
  if (holds(bp.shed_watermark, mode_ >= BackpressureMode::kShed)) {
    target = BackpressureMode::kShed;
  }
  if (holds(bp.sweep_watermark, mode_ == BackpressureMode::kSweepOnly)) {
    target = BackpressureMode::kSweepOnly;
  }
  if (target == mode_) return;
  PLANCK_TRACE_ARGS(sim_, "collector." + name_, "backpressure_mode",
                    obs::argf("\"from\":%d,\"to\":%d,\"queued\":%zu",
                              static_cast<int>(mode_),
                              static_cast<int>(target), depth));
  mode_ = target;
  ++mode_changes_;
}

void Collector::sweep() {
  const sim::Time now = sim_.now();

  // Stale rate estimates stop counting toward utilization. The walk is in
  // key order: the records subtract from the floating-point utilization
  // aggregates, and FP subtraction is not associative.
  for (auto& [key, rec] : flows_.mutable_flows()) {
    if (rec.contributing_bps > 0.0 &&
        now - rec.estimator.estimated_at() > kRateStaleness) {
      release_contribution(rec.out_port, rec.contributing_bps);
      rec.contributing_bps = 0.0;
    }
  }

  // Evict idle flows entirely (evict_idle returns records in key order).
  // Every record's residual contribution is unwound, so a port whose
  // flows have all left reads exactly 0.0 again (see PortUtil). The
  // cutoff interval is closed: a flow last seen exactly flow_idle_timeout
  // ago is evicted on this sweep (FlowTable::evict_idle documents the
  // boundary; the regression test pins it).
  std::uint64_t evicted = 0;
  for (const FlowRecord& rec :
       flows_.evict_idle(now - config_.flow_idle_timeout)) {
    release_contribution(rec.out_port, rec.contributing_bps);
    ++evicted;
  }
  if (evicted > 0) {
    evictions_ += evicted;
    PLANCK_TRACE_ARGS(sim_, "collector." + name_, "evictions",
                      obs::argf("\"count\":%llu",
                                static_cast<unsigned long long>(evicted)));
  }

  // Degrade-to-sweep backpressure: while the fast path is muted, evaluate
  // congestion once per period, port-ordered — at most one event per
  // congested link instead of one per hot sample.
  if (mode_ == BackpressureMode::kSweepOnly) {
    for (int p = 0; p < static_cast<int>(ports_.size()); ++p) {
      maybe_fire_event(p, /*from_sweep=*/true);
    }
  }

  // Per-sweep counter tracks, emitted only while the sample stream is
  // active so an idle network adds nothing to the trace.
  if (samples_received_ != samples_traced_) {
    samples_traced_ = samples_received_;
    PLANCK_TRACE_COUNTER(sim_, "collector." + name_, "samples_received",
                         samples_received_);
    PLANCK_TRACE_COUNTER(sim_, "collector." + name_, "flow_table_size",
                         flows_.size());
  }

  sweep_timer_.schedule(config_.sweep_interval);
}

}  // namespace planck::core
