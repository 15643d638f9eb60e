#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
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
/// Simulation each — its own hierarchical timing wheel and packet slab)
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
/// Cross-partition events ride per-source-partition outboxes
/// (Simulation::post / post_packet) and are merged at the window barrier
/// in (source partition id, FIFO) order. Because the timing wheel breaks
/// equal-time ties by push order, that merge order — a pure function of
/// partition state — makes the whole schedule independent of thread
/// count: determinism_digest() is byte-identical for a fixed partition
/// count whether the windows run on 1 thread or N.
///
/// The control partition never runs concurrently with data partitions:
/// it executes serially inside the barrier, while every data thread is
/// parked. Controller RPC closures may therefore keep touching switch
/// and host state directly (their effects land at the window bound — the
/// lookahead grid — rather than mid-window, which is deterministic and
/// documented). Data-plane code talks *to* the control partition only
/// through post(), at least one lookahead ahead like every cross-partition
/// event.
///
/// Threads: run_until() drives the data partitions on `threads` worker
/// threads (static round-robin partition assignment; the calling thread
/// is worker 0). One thread runs the same window loop with no thread
/// started — event-identical, same digest.
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
  /// The control partition's id (always the last — its outbox flushes
  /// after every data partition's in the deterministic merge order).
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

  /// Installs telemetry on every partition (components "sim.p0"..), which
  /// gives each its trace shard, and registers the engine's window/stall
  /// gauges (component "engine"). Single-threaded setup, before
  /// run_until().
  void set_telemetry(obs::Telemetry* telemetry);

  // --- outbox API (called by Simulation::post / post_packet) -------------
  /// Appends a cross-partition event to partition `src`'s outbox. Single
  /// writer per outbox: the thread currently running partition `src`
  /// (workers never share a partition inside a window, and the barrier
  /// orders outbox writes before the merge reads them). `when` must not
  /// precede the current window bound — the destination may already have
  /// run that far. PLANCK_CONTRACT checks it in contract builds.
  void enqueue(int src, Simulation& dst, Time when, EventQueue::Callback cb);
  void enqueue_packet(int src, Simulation& dst, Time when, void* target,
                      std::uint32_t aux, EventQueue::PacketFn fn,
                      const net::Packet& packet);

 private:
  // Coordinator-owned by design: workers touch only their assigned
  // partitions and their own outboxes between barriers; every member
  // below is written either before threads exist or inside the barrier's
  // serial completion phase, whose end synchronizes-with each worker's
  // next window.
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  struct CrossEvent {
    Simulation* dst;
    Time when;
    // Exactly one of the two payloads is live, discriminated by `packet_fn`:
    // the typed DeliverPacket path keeps its no-type-erasure property
    // across the boundary.
    EventQueue::Callback cb;
    EventQueue::PacketFn packet_fn = nullptr;
    void* target = nullptr;
    std::uint32_t aux = 0;
    net::Packet packet;
  };

  /// Picks the next window bound; false when nothing remains <= deadline.
  bool prepare_window(Time deadline);
  /// The serial phase at each barrier: control partition, stall
  /// accounting, outbox merge, stop detection, next bound.
  void serial_phase(Time deadline);
  /// Merges every outbox into its destinations, source-partition-id
  /// order, FIFO within a source.
  void flush_outboxes();

  Duration lookahead_;
  int threads_;
  std::vector<std::unique_ptr<Simulation>> partitions_;
  std::vector<std::vector<CrossEvent>> outboxes_;  // indexed by source pid
  std::vector<std::uint64_t> stalls_;
  std::vector<std::uint64_t> events_at_window_start_;
  std::uint64_t windows_ = 0;
  Time bound_ = 0;
  bool closing_ = false;  // current window is the final deadline stretch
  bool finished_ = true;
  bool stop_seen_ = false;
};

}  // namespace planck::sim
