#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/frame_queue.hpp"
#include "sim/time.hpp"

namespace planck::obs {
class Telemetry;
}  // namespace planck::obs

namespace planck::sim {

class ParallelEngine;

/// Discrete-event simulation driver. Owns the event queue, the clock and
/// the frame pool that its components' packet queues draw on.
/// Single-threaded and fully deterministic: identical schedules produce
/// identical runs. Events at the same timestamp run in schedule order
/// (FIFO), regardless of which schedule_* flavor created them — typed and
/// type-erased events share one ordering.
class Simulation {
 public:
  using PacketFn = EventQueue::PacketFn;
  using CallFn = EventQueue::CallFn;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedules `cb` to run `delay` from now. Negative delays clamp to now.
  EventId schedule(Duration delay, EventQueue::Callback cb) {
    return schedule_at(now_ + (delay > 0 ? delay : 0), std::move(cb));
  }

  /// Schedules `cb` at absolute time `when` (clamped to now if in the past).
  EventId schedule_at(Time when, EventQueue::Callback cb) {
    if (when < now_) when = now_;
    return queue_.push(when, std::move(cb));
  }

  /// Typed fast path for packet delivery (see EventQueue::push_packet): the
  /// packet is copied once into a pooled slab slot and delivered in place.
  EventId schedule_packet(Duration delay, void* target, std::uint32_t aux,
                          PacketFn fn, const net::Packet& packet) {
    return queue_.push_packet(now_ + (delay > 0 ? delay : 0), target, aux, fn,
                              packet);
  }

  /// Typed fast path for small high-frequency events (port drains etc.):
  /// at `when`, `fn(target, aux)` runs. No type erasure, no closure copy.
  EventId schedule_call_at(Time when, void* target, std::uint32_t aux,
                           CallFn fn) {
    if (when < now_) when = now_;
    return queue_.push_call(when, target, aux, fn);
  }

  /// schedule_call_at with a relative delay (negative clamps to now).
  EventId schedule_call(Duration delay, void* target, std::uint32_t aux,
                        CallFn fn) {
    return schedule_call_at(now_ + (delay > 0 ? delay : 0), target, aux, fn);
  }

  /// schedule_packet at an absolute time (clamped to now if in the past).
  /// Used by the parallel engine's inbox drain, which carries the
  /// sender-relative delivery time across partitions as an absolute stamp.
  EventId schedule_packet_at(Time when, void* target, std::uint32_t aux,
                             PacketFn fn, const net::Packet& packet) {
    if (when < now_) when = now_;
    return queue_.push_packet(when, target, aux, fn, packet);
  }

  /// Schedules `cb` on partition `dst` at `delay` from *this* partition's
  /// clock. Same-partition (or unsharded) calls degrade to a plain
  /// schedule; cross-partition calls ride the engine's outboxes and are
  /// drained into `dst` when its next window starts (deterministically:
  /// source partition id, then FIFO). A cross-partition delay must be at
  /// least the engine's conservative lookahead (cross_lookahead()), so the
  /// event lands at or past the current window bound; no post relies on
  /// the drain clamping a late event forward. Posting below the bound is
  /// a contract violation (ParallelEngine::enqueue).
  void post(Simulation& dst, Duration delay, EventQueue::Callback cb);

  /// Typed cross-partition packet delivery: the boundary-link flavor of
  /// post(). Same contract as post(); the dominant event class keeps its
  /// no-type-erasure path across partitions.
  void post_packet(Simulation& dst, Duration delay, void* target,
                   std::uint32_t aux, PacketFn fn, const net::Packet& packet);

  /// Runs `fn` on `dst`, the simulation that owns what `fn` touches: at
  /// once when `dst` is this simulation, so an unsharded caller adds no
  /// event; otherwise posted cross_lookahead() ahead, the hop from a data
  /// partition to the control partition that the window barrier merges.
  template <typename Fn>
  void call_on(Simulation& dst, Fn&& fn) {
    if (&dst == this) {
      fn();
      return;
    }
    post(dst, cross_lookahead_, std::forward<Fn>(fn));
  }

  /// Cancels a pending event. O(1); safe no-op if the event already ran.
  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs events with time <= deadline, then sets the clock to `deadline`
  /// (if the simulation got that far). Returns true if events remain.
  bool run_until(Time deadline);

  /// Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  /// True after stop() until the next run()/run_until() entry clears it.
  /// The parallel engine reads this between lookahead windows: a stop
  /// raised by any partition's event ends the whole run at that window's
  /// barrier (a deterministic point — the stopping event's window index
  /// is a function of the schedule, never of thread timing).
  bool stop_requested() const { return stopped_; }

  /// Number of events executed so far (for tests and progress reporting).
  std::uint64_t events_executed() const {
    const EventQueue::Executed& e = queue_.executed();
    return e.packets + e.calls + e.callbacks;
  }
  /// The same events by kind: typed packet deliveries, typed calls and
  /// type-erased callbacks. Exact, so layers compare by counts, not time.
  const EventQueue::Executed& events_by_kind() const {
    return queue_.executed();
  }

  /// The scheduler's work beyond filing each event once (far-ring files,
  /// re-files, far-ring nodes walked without moving near). Exact counts.
  const EventQueue::WheelWork& wheel_work() const {
    return queue_.wheel_work();
  }

  /// High-water mark of the scheduler's event slab, in nodes.
  std::size_t slab_nodes() const { return queue_.slab_nodes(); }

  /// The blocks that every FrameQueue built on this simulation (switch
  /// ports, NICs) stores its frames in.
  FramePool& frame_pool() { return frames_; }
  const FramePool& frame_pool() const { return frames_; }

  /// Rolling FNV-1a digest of the executed event stream: folds in each
  /// event's timestamp and the live queue size at pop time. Two same-seed
  /// runs must report identical digests at every point; any divergence in
  /// event order, timing, or scheduling volume (the classic symptoms of
  /// unordered-container iteration or unseeded randomness leaking into the
  /// schedule) perturbs it. This is the runtime backstop behind
  /// tools/planck_lint (see DESIGN.md §7); it costs two multiplies per
  /// event, so it stays on in every build.
  std::uint64_t determinism_digest() const { return digest_; }

  bool pending() const { return !queue_.empty(); }

  /// Installs the telemetry plane (DESIGN.md §9) and adds this
  /// partition's trace shard. Not owned; must outlive the simulation (or
  /// be detached with set_telemetry(nullptr)). Install before
  /// constructing components — they register their metrics in their
  /// constructors. Telemetry is read-only with respect to the schedule,
  /// so determinism_digest() is unchanged by installing it or by toggling
  /// tracing.
  void set_telemetry(obs::Telemetry* telemetry);
  obs::Telemetry* telemetry() const { return telemetry_; }

  // --- partition wiring (parallel engine only) ----------------------------
  /// Binds this simulation to a ParallelEngine as partition `partition_id`.
  /// `lookahead` is the engine's conservative horizon (what boundary posts
  /// must clear); `component` names this partition's telemetry component
  /// ("sim.p3"). Single-threaded setup, before any partition thread exists.
  void attach_hub(ParallelEngine* hub, int partition_id, Duration lookahead,
                  std::string component);
  /// Partition id within the engine (0 when unsharded).
  int partition_id() const { return partition_id_; }
  /// The engine's conservative lookahead; 0 when unsharded. Boundary
  /// components use this as the minimum cross-partition hop delay.
  Duration cross_lookahead() const { return cross_lookahead_; }
  /// Earliest pending event's time. Precondition: pending().
  Time next_event_time() { return queue_.next_time(); }
  /// Telemetry component name ("sim", or "sim.p<N>" once sharded).
  const std::string& component() const { return component_; }

 private:
  // Single-writer by design: one Simulation is one partition's event
  // core and packet memory. telemetry_ is shared with the other
  // partitions, but this partition writes only its own trace shard and
  // its components' metrics (DESIGN.md section 12).
  /// The `events_executed` counter point closing run() and run_until().
  void trace_events_executed();

  void fold_digest() {
    digest_ = (digest_ ^ static_cast<std::uint64_t>(now_)) * kFnvPrime;
    digest_ = (digest_ ^ queue_.size()) * kFnvPrime;
  }

  static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

  EventQueue queue_;
  FramePool frames_;
  Time now_ = 0;
  bool stopped_ = false;
  std::uint64_t digest_ = kFnvOffset;
  obs::Telemetry* telemetry_ = nullptr;
  // Sharded-engine wiring (attach_hub): null/defaults when this Simulation
  // is a standalone engine, which keeps every pre-partitioning call path
  // byte-identical.
  ParallelEngine* hub_ = nullptr;
  int partition_id_ = 0;
  Duration cross_lookahead_ = 0;
  std::string component_ = "sim";
};

}  // namespace planck::sim
