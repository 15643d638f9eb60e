#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace planck::controller {

/// Controller-side ledger of versioned route programs (DESIGN.md §10).
///
/// Every reroute opens a new, globally monotone *epoch*: a numbered route
/// program for one flow. The ledger owns each flow's current tree: the
/// tree of its newest program, set optimistically at open time and
/// reconciled against what actually survived the lossy channel:
///
///   open ──► commit        program acked end-to-end; its tree becomes the
///                          flow's last-good.
///   open ──► rollback      program failed (partial install, commit
///                          timeout, dead switch); if it was the flow's
///                          newest program the flow falls back to a newer
///                          attempt still in flight, or to last-good.
///
/// Staleness is filtered at two points: `begin_apply` drops a program
/// whose inject is about to run after a newer program was opened (the
/// ARP-mechanism path, which touches no switch rule), and `commit`
/// reports when the acked program is no longer the newest — the cue for
/// the controller to reconcile the data plane (erase an obsolete flow
/// rule that would outrank newer state).
class EpochManager {
 public:
  explicit EpochManager(sim::Simulation& sim) : sim_(sim) {}

  /// Reserves an epoch number without per-flow tracking — the whole-table
  /// program install_routes() stages and commits synchronously.
  std::uint64_t allocate_program() { return next_epoch_++; }

  /// Opens a new epoch moving `key` onto `tree`. `fallback_tree` seeds the
  /// flow's last-good on first contact (the pre-epoch assignment).
  std::uint64_t open(const net::FlowKey& key, int tree, int fallback_tree);

  /// Apply-time staleness filter: true while `epoch` is still the newest
  /// program for its flow. A duplicate (at-least-once) delivery of the
  /// newest program passes — re-applying it is idempotent.
  bool begin_apply(const net::FlowKey& key, std::uint64_t epoch);

  /// Records end-to-end ack of `epoch`. The highest committed epoch's tree
  /// becomes the flow's last-good. True when `epoch` is the flow's newest
  /// program: the ledger and the data plane agree. False = stale commit;
  /// an obsolete program may be live → reconcile.
  bool commit(const net::FlowKey& key, std::uint64_t epoch);

  /// Failsafe: `epoch` failed. Returns the flow's tree after the fall-back
  /// — the last-good (or a still-in-flight newer attempt's) tree — when
  /// the failure invalidates the optimistic assignment, i.e. the failed
  /// epoch was the flow's newest. nullopt: the flow already follows a
  /// newer program; nothing to repair.
  std::optional<int> rollback(const net::FlowKey& key, std::uint64_t epoch);

  /// The tree of the flow's newest program (0 until rerouted).
  int tree_of(const net::FlowKey& key) const;
  /// tree_of for every flow ever rerouted, in FlowKey order.
  std::map<net::FlowKey, int> trees() const;

  /// True while any program for `key` is still crossing the channel.
  bool in_flight(const net::FlowKey& key) const;
  /// Newest epoch ever opened for `key` (0 = never rerouted).
  std::uint64_t newest_epoch(const net::FlowKey& key) const;
  /// Highest epoch number handed out so far.
  std::uint64_t last_epoch() const { return next_epoch_ - 1; }

  std::uint64_t opened() const { return opened_; }
  std::uint64_t committed() const { return committed_; }
  /// Programs that failed and reverted the assignment to last-good.
  std::uint64_t fallbacks() const { return fallbacks_; }
  std::uint64_t stale_applies() const { return stale_applies_; }
  std::uint64_t stale_commits() const { return stale_commits_; }

 private:
  struct Pending {
    std::uint64_t epoch = 0;
    int tree = 0;
  };
  struct FlowRecord {
    std::uint64_t newest = 0;     // newest epoch opened
    std::uint64_t committed = 0;  // highest epoch acked end-to-end
    int committed_tree = 0;       // last-good program
    std::vector<Pending> in_flight;  // a handful at most

    /// The newest program's tree. Once that program leaves in_flight it
    /// is the committed one: rolling back a newest program moves `newest`.
    int tree() const;
  };

  FlowRecord* find(const net::FlowKey& key);
  const FlowRecord* find(const net::FlowKey& key) const;

  sim::Simulation& sim_;
  std::uint64_t next_epoch_ = 1;
  std::map<net::FlowKey, FlowRecord> flows_;

  std::uint64_t opened_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t stale_applies_ = 0;
  std::uint64_t stale_commits_ = 0;
};

}  // namespace planck::controller
