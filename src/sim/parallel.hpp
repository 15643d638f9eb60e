#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace planck::obs {
class Telemetry;
}  // namespace planck::obs

namespace planck::sim {

/// Conservative-lookahead parallel event engine (DESIGN.md §14).
///
/// The fabric is sharded into `data_partitions` topology partitions (one
/// Simulation each — its own timing wheel and packet slab)
/// plus one *control* partition (controller, TE, control channel). Time
/// advances in windows: every window, each data partition independently
/// runs its events up to a shared bound
///
///   bound = min(next event time over all partitions) + lookahead
///
/// where `lookahead` is the minimum cross-partition link propagation
/// delay. Any cross-partition delivery generated inside the window is
/// stamped at its source time plus at least serialization + propagation,
/// which is strictly past the bound — so no partition can receive an
/// event in its past, and the windows never need rollback (classic
/// conservative/bounded-lag synchronization).
///
/// Cross-partition events ride per-(source, destination) outboxes
/// (Simulation::post / post_packet), double-buffered by window parity:
/// one FIFO of post records, packets and callbacks alike. Each
/// destination drains what was posted to it in the previous window at
/// the start of its own run, in (source partition id, FIFO) order.
/// Because the timing wheel breaks equal-time ties by push order, that
/// drain order — a pure function of partition state — makes the whole
/// schedule independent of thread count: determinism_digest() is
/// byte-identical for a fixed partition count whether the windows run on
/// 1 thread or N. run_until() drains the leftovers before it returns, so
/// between calls every event sits in its destination's wheel.
///
/// The control partition never runs concurrently with data partitions:
/// it executes serially inside the barrier, while every data thread
/// waits. Controller RPC closures may therefore keep touching switch and
/// host state directly (their effects land at the window bound — the
/// lookahead grid — rather than mid-window, which is deterministic and
/// documented). Data-plane code talks *to* the control partition only
/// through post(), at least one lookahead ahead like every
/// cross-partition event.
///
/// Threads: run_until() drives the data partitions on `threads` workers
/// (the calling thread is worker 0). Before each window the serial phase
/// assigns partitions to workers in longest-processing-time order over
/// their cumulative executed-event counts, so the busiest partitions are
/// spread first and an assignment, once balanced, rarely changes. One
/// thread runs the same window loop with no thread started —
/// event-identical, same digest.
class ParallelEngine {
 public:
  /// `data_partitions` >= 1 topology partitions plus one control
  /// partition; `lookahead` > 0 is the conservative horizon (min
  /// cross-partition link propagation delay); `threads` is clamped to
  /// [1, data_partitions].
  ParallelEngine(int data_partitions, Duration lookahead, int threads);

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Total partitions including the control partition.
  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  int data_partitions() const { return num_partitions() - 1; }
  /// The control partition's id (always the last — its posts drain after
  /// every data partition's in the deterministic merge order).
  int control_partition() const { return num_partitions() - 1; }
  int threads() const { return threads_; }
  Duration lookahead() const { return lookahead_; }

  Simulation& partition(int pid) {
    return *partitions_[static_cast<std::size_t>(pid)];
  }
  /// The control partition's Simulation: construct the controller, TE and
  /// control channel against this one.
  Simulation& control() { return partition(control_partition()); }

  /// Runs every partition to `deadline` in lookahead windows. Returns
  /// early (at a window barrier) if any partition's event called stop().
  /// Callable repeatedly with increasing deadlines.
  void run_until(Time deadline);

  /// True when the last run_until() ended on a stop() rather than the
  /// deadline.
  bool stopped() const { return stop_seen_; }

  /// Sum of events executed across all partitions.
  std::uint64_t events_executed() const;

  /// Engine-level determinism digest: the per-partition digests (plus
  /// event counts) folded in partition-id order. Byte-stable for a fixed
  /// partition count regardless of thread count; any cross-thread leak
  /// (a racy mailbox merge, a wandering window bound) perturbs it.
  std::uint64_t determinism_digest() const;

  /// Lookahead windows executed so far.
  std::uint64_t windows() const { return windows_; }
  /// Windows in which partition `pid` executed no event — it stalled at
  /// the barrier waiting for the fabric-wide bound to pass its next
  /// event. A deterministic count (a function of the schedule, not of
  /// wall time): the per-partition load-imbalance signal.
  std::uint64_t barrier_stalls(int pid) const {
    return stalls_[static_cast<std::size_t>(pid)];
  }
  /// Sum over windows of the most-loaded worker's executed events under
  /// the assignment in force, plus the control partition's events (the
  /// serial phase runs on one thread). A deterministic stand-in for the
  /// run's critical path: critical_path_events() * threads() /
  /// events_executed() is 1 for a perfect balance and threads() when one
  /// worker does everything.
  std::uint64_t critical_path_events() const { return critical_path_; }
  /// Windows whose partition-to-worker assignment differs from the
  /// previous window's.
  std::uint64_t reassignments() const { return reassignments_; }

  /// Installs telemetry on every partition (components "sim.p0"..), which
  /// gives each its trace shard, and registers the engine's window/stall
  /// gauges (component "engine"). Single-threaded setup, before
  /// run_until().
  void set_telemetry(obs::Telemetry* telemetry);

  // --- outbox API (called by Simulation::post / post_packet) -------------
  /// Appends a cross-partition event to the outbox from partition `src`
  /// to `dst` for the current window parity. Single writer per outbox:
  /// the thread currently running partition `src` (workers never share a
  /// partition inside a window). `dst` drains it in the next window, and
  /// the barrier between the two orders the writes before the reads.
  /// `when` must not precede the current window bound — the destination
  /// may already have run that far. PLANCK_CONTRACT checks it in contract
  /// builds.
  void enqueue(int src, Simulation& dst, Time when, EventQueue::Callback cb);
  void enqueue_packet(int src, Simulation& dst, Time when, void* target,
                      std::uint32_t aux, EventQueue::PacketFn fn,
                      const net::Packet& packet);

 private:
  // Coordinator-owned by design: workers touch only their assigned
  // partitions, the outboxes those partitions write this window and the
  // inboxes they drain from the last one; every other member below is
  // written either before threads exist or inside the barrier's serial
  // phase, whose end synchronizes-with each worker's next window.
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  /// One cross-partition event. A packet delivery keeps its typed path
  /// across the boundary: `fn(target, aux, packet)` at `when`, with no
  /// closure. A callback leaves `fn` and `target` null.
  struct Post {
    Time when;
    EventQueue::PacketFn fn;
    void* target;
    std::uint32_t aux;
    std::variant<net::Packet, EventQueue::Callback> payload;
  };
  /// One source's posts within one window, written only by the thread
  /// running that source.
  struct alignas(64) Outbox {
    // Indexed by destination pid: each mailbox is one FIFO.
    std::vector<std::vector<Post>> to;
    Time earliest = kNever;  // smallest `when` posted since the last bound
  };

  Outbox& outbox(int src) {
    return outboxes_[phase_][static_cast<std::size_t>(src)];
  }
  /// Moves every post to `dst` of window parity `parity` into its wheel,
  /// in (source partition id, FIFO) order.
  void drain_inbox(int dst, int parity);
  /// Drains every destination's inbox of the current parity: the posts
  /// made since the last window, between or before run_until() calls.
  void drain_all();
  /// Picks the next window bound; false when nothing remains <= deadline.
  bool prepare_window(Time deadline);
  /// Records every partition's event count at the window's start and
  /// assigns data partitions to workers, longest processing time first
  /// over their cumulative executed-event counts.
  void start_window();
  /// The serial phase at each barrier: control partition, stall and
  /// load accounting, stop detection, next bound, next assignment.
  void serial_phase(Time deadline);

  Duration lookahead_;
  int threads_;
  std::vector<std::unique_ptr<Simulation>> partitions_;
  std::array<std::vector<Outbox>, 2> outboxes_;  // [parity][source pid]
  int phase_ = 0;  // the parity this window's posts go to
  std::vector<int> owner_;  // data pid -> worker, for the current window
  std::vector<std::uint64_t> stalls_;
  std::vector<std::uint64_t> events_at_window_start_;
  std::uint64_t windows_ = 0;
  std::uint64_t critical_path_ = 0;
  std::uint64_t reassignments_ = 0;
  Time bound_ = 0;
  bool closing_ = false;  // current window is the final deadline stretch
  bool finished_ = true;
  bool stop_seen_ = false;
};

}  // namespace planck::sim
