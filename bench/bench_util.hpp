#pragma once

// Shared helpers for the figure/table reproduction benches. Each bench is
// a standalone binary that prints the rows/series the paper reports.
//
// Environment knobs:
//   PLANCK_BENCH_RUNS   repeat count for randomized experiments (default
//                       per bench; the paper used 15)
//   PLANCK_BENCH_SCALE  multiplier on workload flow sizes (default 1.0 of
//                       the bench's documented defaults)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/units.hpp"
#include "stats/samples.hpp"
#include "stats/table.hpp"

namespace planck::bench {

/// Returns the operand following `flag` in argv, or "" when absent
/// (e.g. arg_value(argc, argv, "--trace") for the trace-output path).
inline std::string arg_value(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == flag) return argv[i + 1];
  }
  return std::string();
}

inline int runs(int default_runs) {
  if (const char* env = std::getenv("PLANCK_BENCH_RUNS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return default_runs;
}

inline double scale() {
  if (const char* env = std::getenv("PLANCK_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return 1.0;
}

inline sim::Bytes mib(double n) {
  return sim::Bytes{static_cast<std::int64_t>(n * 1024 * 1024)};
}

inline void header(const char* id, const char* title) {
  std::printf(
      "==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf(
      "==============================================================\n");
}

/// Machine-readable bench output, backed by an obs::MetricRegistry so
/// every bench exports the planck-metrics-v1 schema (DESIGN.md §9) —
/// CI and scripts assert on metrics without scraping stdout. Benches that
/// support it accept `--json <path>`.
class JsonReport {
 public:
  /// Parses `--json <path>` out of argv; disabled when the flag is absent.
  JsonReport(int argc, char** argv) : path_(arg_value(argc, argv, "--json")) {}

  bool enabled() const { return !path_.empty(); }

  /// The backing registry, for benches exporting custom metrics.
  obs::MetricRegistry& metrics() { return registry_; }

  /// Records one throughput measurement as four gauges under `name`.
  /// `sim_seconds` may be 0 for benches with no simulated-time dimension
  /// (raw data-structure loops).
  void add(const std::string& name, std::uint64_t events, double wall_seconds,
           double sim_seconds) {
    registry_.gauge(name, "events").set(static_cast<double>(events));
    registry_.gauge(name, "wall_seconds").set(wall_seconds);
    registry_.gauge(name, "sim_seconds").set(sim_seconds);
    registry_.gauge(name, "events_per_sec")
        .set(wall_seconds > 0
                 ? static_cast<double>(events) / wall_seconds
                 : 0.0);
  }

  /// Records the shape of a latency distribution (exact order statistics)
  /// as gauges under `name`.
  void add_latency(const std::string& name, const stats::Samples& samples) {
    registry_.gauge(name, "count")
        .set(static_cast<double>(samples.size()));
    if (samples.empty()) return;
    registry_.gauge(name, "p5_us").set(samples.percentile(5));
    registry_.gauge(name, "p50_us").set(samples.median());
    registry_.gauge(name, "p95_us").set(samples.percentile(95));
    registry_.gauge(name, "p99_us").set(samples.percentile(99));
  }

  /// Writes the report (no-op unless enabled). Returns false on I/O error.
  bool write() const {
    if (!enabled()) return true;
    if (!registry_.write_json(path_)) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    return true;
  }

 private:
  std::string path_;
  obs::MetricRegistry registry_;
};

/// Prints a CDF as (value, fraction) rows, downsampled to ~`points`.
inline void print_cdf(const char* label, const stats::Samples& samples,
                      std::size_t points = 20, const char* unit = "") {
  std::printf("%s (n=%zu)\n", label, samples.size());
  if (samples.empty()) return;
  for (const auto& [value, fraction] : samples.cdf_points(points)) {
    std::printf("  %10.4f %s  %6.3f\n", value, unit, fraction);
  }
}

}  // namespace planck::bench
