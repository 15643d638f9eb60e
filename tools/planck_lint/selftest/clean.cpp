// Legitimate patterns that planck-lint must NOT flag: any finding in this
// file is a selftest false positive. This file is never compiled.

#include <map>

struct CleanSim {
  void schedule(int delay);
};

struct CleanPatterns {
  CleanSim sim_;
  std::map<int, int> ordered_;  // ordered container: iterate freely
  // Names that merely contain the banned tokens, and mentions of them in
  // comments and strings (unordered_map, unordered_set), are not uses.
  int unordered_mapping_count_ = 0;
  const char* note_ = "std::unordered_map is banned";

  // A std::map walks its keys in order, so its walk may schedule.
  void ordered_traversal() {
    for (const auto& kv : ordered_) sim_.schedule(kv.first);
  }

  // Widening conversions of timestamps are fine; so are casts between
  // non-time integers.
  double widen(long t_ns, int count) const {
    return static_cast<double>(t_ns) + static_cast<double>(count);
  }
};

// Trace events computed purely from sim state must NOT trip
// trace-wall-clock; neither must the macro definitions themselves.
#define PLANCK_TRACE(sim_expr, component, name) ((void)0)
#define PLANCK_TRACE_COUNTER(sim_expr, component, name, value_expr) ((void)0)

struct TracedClean {
  CleanSim sim_;
  long events_ = 0;

  void traced_from_sim_time() {
    PLANCK_TRACE(sim_, "switch.s0", "port_down");
    PLANCK_TRACE_COUNTER(sim_, "sim", "events_executed", events_);
  }
};
