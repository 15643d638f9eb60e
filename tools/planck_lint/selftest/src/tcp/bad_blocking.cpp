// Fixture: blocking calls in event-loop-reachable code (DESIGN.md
// section 13). A partition thread that sleeps, touches the filesystem, or
// contends on a lock stalls every partition waiting at the next lookahead
// barrier — blocking work belongs in setup/teardown code. Never compiled.

#include "sim/simulation.hpp"

namespace planck::tcp {

// Schedules, so it executes inside the event loop: every blocking
// primitive below stalls the partition mid-epoch.
void retransmit_tick(sim::Simulation& sim) {
  sim.schedule(sim::microseconds(5), [] {});
  std::this_thread::sleep_for(pacing_gap());  // EXPECT-LINT: blocking-in-partition
  std::ofstream dump("cwnd.log");  // EXPECT-LINT: blocking-in-partition
  fprintf(stderr, "tick\n");  // EXPECT-LINT: blocking-in-partition
}

// Tainted transitively through retransmit_tick(): lock acquisition in
// event-loop-reachable fabric code contends across partitions.
void share_cwnd_estimate(sim::Simulation& sim) {
  retransmit_tick(sim);
  std::lock_guard<std::mutex> fallback(raw_mu_);  // EXPECT-LINT: blocking-in-partition
}

// Offline analysis helper: no scheduling sink is reachable from here, so
// it runs outside the event loop, where file I/O is the point. Clean.
void export_cwnd_trace() {
  std::ofstream out("cwnd_trace.json");
  fprintf(stderr, "exported\n");
}

// Escape hatch: an audited blocking call with a written rationale.
void flush_on_quiesce(sim::Simulation& sim) {
  sim.schedule(sim::microseconds(7), [] {});
  // planck-lint: allow(blocking-in-partition) — runs only after Simulation::run() returns
  std::ofstream out("quiesce.log");
}

}  // namespace planck::tcp
