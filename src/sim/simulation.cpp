#include "sim/simulation.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "sim/parallel.hpp"

namespace planck::sim {

void Simulation::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ != nullptr) {
    telemetry_->tracer().add_shard(partition_id_);
    telemetry_->metrics().gauge(component_, "events_executed", [this] {
      return static_cast<double>(events_executed());
    });
    telemetry_->metrics().gauge(component_, "packet_events", [this] {
      return static_cast<double>(queue_.executed().packets);
    });
    telemetry_->metrics().gauge(component_, "call_events", [this] {
      return static_cast<double>(queue_.executed().calls);
    });
    telemetry_->metrics().gauge(component_, "callback_events", [this] {
      return static_cast<double>(queue_.executed().callbacks);
    });
    telemetry_->metrics().gauge(component_, "far_files", [this] {
      return static_cast<double>(queue_.wheel_work().far_files);
    });
    telemetry_->metrics().gauge(component_, "refiles", [this] {
      return static_cast<double>(queue_.wheel_work().refiles);
    });
    telemetry_->metrics().gauge(component_, "peek_walked", [this] {
      return static_cast<double>(queue_.wheel_work().peek_walked);
    });
    telemetry_->metrics().gauge(component_, "slab_nodes", [this] {
      return static_cast<double>(slab_nodes());
    });
    telemetry_->metrics().gauge(component_, "frame_blocks", [this] {
      return static_cast<double>(frames_.blocks());
    });
  }
}

void Simulation::attach_hub(ParallelEngine* hub, int partition_id,
                            Duration lookahead, std::string component) {
  hub_ = hub;
  partition_id_ = partition_id;
  cross_lookahead_ = lookahead;
  component_ = std::move(component);
}

void Simulation::post(Simulation& dst, Duration delay,
                      EventQueue::Callback cb) {
  if (delay < 0) delay = 0;
  if (hub_ == nullptr || &dst == this) {
    // Unsharded (or self-directed) post: a plain schedule, byte-identical
    // to the pre-partitioning call path.
    dst.schedule_at(now_ + delay, std::move(cb));
    return;
  }
  hub_->enqueue(partition_id_, dst, now_ + delay, std::move(cb));
}

void Simulation::post_packet(Simulation& dst, Duration delay, void* target,
                             std::uint32_t aux, PacketFn fn,
                             const net::Packet& packet) {
  if (delay < 0) delay = 0;
  if (hub_ == nullptr || &dst == this) {
    dst.schedule_packet_at(now_ + delay, target, aux, fn, packet);
    return;
  }
  hub_->enqueue_packet(partition_id_, dst, now_ + delay, target, aux, fn,
                       packet);
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    // The clock must read the event's time before the event runs. When
    // next_time found the event in the near wheel, run_top pops that
    // memoized head without scanning the bitmap again.
    now_ = queue_.next_time();
    fold_digest();
    queue_.run_top();
  }
  trace_events_executed();
}

bool Simulation::run_until(Time deadline) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty()) {
    const Time when = queue_.next_time();
    if (when > deadline) break;
    now_ = when;
    fold_digest();
    queue_.run_top();
  }
  if (!stopped_ && now_ < deadline) now_ = deadline;
  trace_events_executed();
  return !queue_.empty();
}

void Simulation::trace_events_executed() {
  // A partition runs once per lookahead window; its engine emits the point
  // once per ParallelEngine::run_until instead.
  if (hub_ != nullptr) return;
  PLANCK_TRACE_COUNTER(*this, component_, "events_executed",
                       events_executed());
}

}  // namespace planck::sim
