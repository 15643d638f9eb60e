#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "stats/histogram.hpp"

namespace planck::obs {

/// Monotone event count owned by the registry. Components hold a pointer
/// and bump it through PLANCK_METRIC so the write compiles away when the
/// telemetry plane is disabled. The count is a relaxed atomic, so
/// increments from several threads never lose a count, and no ordering is
/// implied — a counter is a tally, not a fence.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value. Either set directly (bench results) or backed by a
/// callback that reads the owning component's state at export time — the
/// callback form keeps hot paths untouched: nothing is written per event,
/// the registry pulls when a report is produced. The direct value is a
/// relaxed atomic; set_source() is registration and a callback runs only
/// at export (the rule on MetricRegistry).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void set_source(std::function<double()> source) {
    source_ = std::move(source);
  }
  double value() const {
    return source_ ? source_() : value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::function<double()> source_;
};

/// Distribution metric over a fixed range; thin wrapper over
/// stats::Histogram that adds quantile readout for report export. Not
/// atomic: each histogram has one observing partition (the rule on
/// MetricRegistry).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets) : h_(lo, hi, buckets) {}

  void observe(double v) { h_.add(v); }
  std::uint64_t count() const { return h_.total(); }
  std::uint64_t underflow() const { return h_.underflow(); }
  std::uint64_t overflow() const { return h_.overflow(); }

  /// Upper edge of the first bucket whose cumulative fraction reaches `q`
  /// (0..1). Underflow resolves to the range's lower edge; 0 when empty.
  double quantile(double q) const {
    if (h_.total() == 0) return 0.0;
    if (static_cast<double>(h_.underflow()) /
            static_cast<double>(h_.total()) >=
        q) {
      return h_.bucket_lo(0);
    }
    for (std::size_t i = 0; i < h_.buckets(); ++i) {
      if (h_.cumulative_fraction(i) >= q) return h_.bucket_hi(i);
    }
    return h_.bucket_hi(h_.buckets() - 1);
  }

 private:
  stats::Histogram h_;
};

/// Named metrics, registered by component ("switch.s0", "collector.c3",
/// "te", ...). Storage is a std::map keyed on "component/name", so export
/// order is lexicographic and byte-identical across same-seed runs —
/// never registration-hash order. Re-registering an existing metric
/// returns the existing instance (callback gauges replace their source),
/// so idempotent component setup is safe.
///
/// Lifetime: callback gauges capture the registering component; collect a
/// report (to_json/write_json/visit) only while those components are
/// alive. The registry itself never invokes callbacks outside export.
///
/// Rule: one Telemetry per engine or plain Simulation; register before
/// the run; export after it. Registration happens at setup (component
/// constructors, Simulation::set_telemetry) and export after run_until has
/// joined its workers, so the map has no concurrent writer and needs no
/// lock. During the run a partition thread only bumps its components'
/// counters and observes a histogram only its partition observes (the
/// one, te/reroute_latency_us, on the control partition). Entries are
/// std::map nodes, so the references handed out stay valid across later
/// registrations.
class MetricRegistry {
 public:
  Counter& counter(std::string_view component, std::string_view name);
  Gauge& gauge(std::string_view component, std::string_view name);
  Gauge& gauge(std::string_view component, std::string_view name,
               std::function<double()> source);
  Histogram& histogram(std::string_view component, std::string_view name,
                       double lo, double hi, std::size_t buckets);

  std::size_t size() const { return metrics_.size(); }

  /// Visits every metric in key order: fn(component, name, kind, metric
  /// pointer for its kind, nullptr for the others).
  void visit(const std::function<void(const std::string& component,
                                      const std::string& name,
                                      const Counter* counter,
                                      const Gauge* gauge,
                                      const Histogram* histogram)>& fn) const;

  /// One JSON schema for every producer (benches, CI, tools):
  /// {"schema":"planck-metrics-v1","metrics":[{component,name,kind,...}]}.
  /// Counters carry integer "value"; gauges a double "value"; histograms
  /// "count"/"p50"/"p90"/"p99" plus the tail counts.
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  struct Entry {
    std::string component;
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(std::string_view component, std::string_view name);

  std::map<std::string, Entry> metrics_;
};

}  // namespace planck::obs
