#pragma once

#include <cstdint>
#include <vector>

#include "net/route_info.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "workload/testbed.hpp"

namespace planck::fault {

/// What failed (or recovered). Every record names a concrete transition
/// actually applied to the testbed — overlapping outages of the same
/// target collapse to one down/up pair.
enum class FaultKind {
  kLinkDown,
  kLinkUp,
  kSwitchCrash,
  kSwitchRestore,
  kCollectorCrash,
  kCollectorRestore,
};

struct FaultRecord {
  sim::Time at = 0;
  FaultKind kind = FaultKind::kLinkDown;
  int node = -1;
  int port = -1;  // -1 for switch/collector faults
};

/// Knobs for a randomized fault schedule (plan_random). All choices come
/// from the injector's seeded generator over deterministically-ordered
/// candidate lists, so a (topology, seed) pair always produces the same
/// schedule. Link cuts and switch crashes are always candidates.
struct ChaosConfig {
  int num_faults = 8;
  /// Faults start uniformly inside [start, start + spread).
  sim::Duration start = sim::milliseconds(5);
  sim::Duration spread = sim::milliseconds(40);
  /// Outage duration, uniform in [min_down, max_down].
  sim::Duration min_down = sim::milliseconds(2);
  sim::Duration max_down = sim::milliseconds(15);
  bool include_collectors = true;
};

/// Deterministic, seed-driven fault injection for a running Testbed.
/// Immediate and scheduled link cuts, switch crashes and collector
/// outages, plus a randomized chaos planner — everything flows through
/// the event queue, so a faulted run replays exactly.
///
/// Overlapping outages are reference-counted per target: the second
/// concurrent "down" of a link deepens the outage instead of toggling it,
/// and the target only comes back when every outage holding it has ended.
/// history() records the transitions that actually happened.
class FaultInjector {
 public:
  FaultInjector(sim::Simulation& simulation, workload::Testbed& testbed,
                std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- immediate faults (reference-counted) ------------------------------
  void fail_link(int node, int port);
  void restore_link(int node, int port);
  void crash_switch(int node);
  void restore_switch(int node);
  void crash_collector(int node);
  void restore_collector(int node);

  // --- scheduled outages --------------------------------------------------
  void schedule_link_outage(sim::Time at, sim::Duration duration, int node,
                            int port);
  void schedule_switch_outage(sim::Time at, sim::Duration duration, int node);
  void schedule_collector_outage(sim::Time at, sim::Duration duration,
                                 int node);

  /// Draws `config.num_faults` randomized outages over the testbed and
  /// schedules them. Returns the number actually planned (0 when the
  /// testbed offers no candidate).
  int plan_random(const ChaosConfig& config);

  /// Cross-component epoch invariants (DESIGN.md §10), assertable at any
  /// point of a chaos run via PLANCK_CONTRACT: no switch runs a route
  /// program the controller never issued, and any staged program is
  /// strictly newer than the one live on that switch — i.e. a partially
  /// installed epoch is never the one being served.
  void check_epoch_invariants();

  /// Applied transitions, in event order.
  const std::vector<FaultRecord>& history() const { return history_; }
  /// True while any outage holds the target down.
  bool link_down(int node, int port) const;
  bool switch_down(int node) const;
  bool collector_down(int node) const;

 private:
  void record(FaultKind kind, int node, int port);
  /// Canonical id of the cable touching (node, port): the lower endpoint.
  net::DirectedLink cable_id(int node, int port) const;
  /// The outage depth of the cable touching (node, port).
  int& link_depth(int node, int port);

  sim::Simulation& sim_;
  workload::Testbed& testbed_;
  sim::Rng rng_;

  // Outage depths by graph node; a cable's count sits at its canonical
  // end, by port.
  std::vector<std::vector<int>> link_depth_;
  std::vector<int> switch_depth_;
  std::vector<int> collector_depth_;
  std::vector<FaultRecord> history_;
};

}  // namespace planck::fault
