// Seeded violations for planck-lint's selftest. Each `EXPECT-LINT:` comment
// names the check that must fire on that exact line; the selftest fails if
// a check misses its line or fires anywhere unannotated. This file is never
// compiled — it only has to look like the C++ the analyzer parses.

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <map>
#include <unordered_map>                               // EXPECT-LINT: unordered-container
#include <vector>

struct Sim {
  void schedule(int delay);
  long now();
};

struct Widget {
  int id;
};

// --- wall-clock ----------------------------------------------------------

long wall_clock_sources() {
  auto t0 = std::chrono::steady_clock::now();          // EXPECT-LINT: wall-clock
  auto t1 = std::chrono::system_clock::now();          // EXPECT-LINT: wall-clock
  int noise = std::rand();                             // EXPECT-LINT: wall-clock
  std::random_device entropy;                          // EXPECT-LINT: wall-clock
  long stamp = time(nullptr);                          // EXPECT-LINT: wall-clock
  (void)t0;
  (void)t1;
  return stamp + noise + static_cast<long>(entropy());
}

// --- trace-wall-clock ----------------------------------------------------

#define PLANCK_TRACE_ARGS(sim_expr, component, name, args_expr) ((void)0)
#define PLANCK_TRACE_COUNTER(sim_expr, component, name, value_expr) ((void)0)

void traced_wall_clock(Sim& sim) {
  PLANCK_TRACE_ARGS(sim, "bench", "lap", argf("\"t\":%ld", time(nullptr)));  // EXPECT-LINT: wall-clock, trace-wall-clock
  PLANCK_TRACE_COUNTER(sim, "bench", "noise", std::rand());                  // EXPECT-LINT: wall-clock, trace-wall-clock
}

// --- unordered-container -----------------------------------------------

struct HashOrder {
  std::unordered_map<int, int> table_;                 // EXPECT-LINT: unordered-container
  std::unordered_multiset<long> bag_;                  // EXPECT-LINT: unordered-container

  // No scheduling call is reachable from here, and the container is still
  // banned: a floating-point fold in hash order is not reproducible.
  static double fold(const std::unordered_multimap<int, double>& rates) {  // EXPECT-LINT: unordered-container
    double sum = 0.0;
    for (const auto& kv : rates) sum += kv.second;
    return sum;
  }

  // Suppressed with a rationale: must NOT be reported.
  // planck-lint: allow(unordered-container) — probed, never iterated
  std::unordered_set<int> seen_;
};

// --- pointer-key ---------------------------------------------------------

struct PointerOrder {
  std::map<Widget*, int> by_address_;                  // EXPECT-LINT: pointer-key

  static bool before(const std::vector<Widget*>& v) {
    auto cmp = [](const Widget* a, const Widget* b) { return a < b; };  // EXPECT-LINT: pointer-key
    return cmp(v[0], v[1]);
  }
};

// --- time-unit -----------------------------------------------------------

constexpr long kMillisecond = 1'000'000;
long milliseconds(long n) { return n * kMillisecond; }

int time_unit_narrowing(Sim& sim) {
  int deadline = static_cast<int>(sim.now() + milliseconds(5));  // EXPECT-LINT: time-unit
  const unsigned timeout = milliseconds(2) + kMillisecond;       // EXPECT-LINT: time-unit
  return deadline + static_cast<int>(timeout);
}

// --- raw-cast ------------------------------------------------------------

int raw_casts(const double* value) {
  const long bits = *reinterpret_cast<const long*>(value);       // EXPECT-LINT: raw-cast
  double* writable = const_cast<double*>(value);                 // EXPECT-LINT: raw-cast
  *writable = 0.0;
  return static_cast<int>(bits & 0xff);
}

// Audited cast with a rationale: must NOT be reported.
int suppressed_cast(const double* value) {
  // planck-lint: allow(raw-cast) — bit inspection audited in selftest
  const long bits = *reinterpret_cast<const long*>(value);
  return static_cast<int>(bits & 0xff);
}

// 1'000'000-style digit separators must not confuse the string stripper:
// if one opened a char literal, it would blank the rest of this file and
// the declaration below would go unreported.
inline constexpr long kRate = 10'000'000'000;

struct SeparatorProbe {
  std::unordered_set<long> after_separator_;           // EXPECT-LINT: unordered-container
};
