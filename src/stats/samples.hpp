#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace planck::stats {

/// A collection of samples with exact order statistics. Percentile queries
/// sort lazily, so adds stay O(1) amortized.
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }

  void reserve(std::size_t n) { values_.reserve(n); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  void clear() {
    values_.clear();
    sorted_ = true;
  }

  /// Exact percentile in [0, 100] using linear interpolation between the
  /// two nearest order statistics (same convention as numpy's default).
  /// Returns NaN when empty.
  double percentile(double p) const {
    if (values_.empty()) return std::nan("");
    ensure_sorted();
    if (values_.size() == 1) return values_[0];
    const double clamped = std::clamp(p, 0.0, 100.0);
    const double rank =
        clamped / 100.0 * static_cast<double>(values_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values_[lo] + frac * (values_[hi] - values_[lo]);
  }

  double median() const { return percentile(50.0); }
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }

  double mean() const {
    if (values_.empty()) return std::nan("");
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

  double stddev() const {
    if (values_.size() < 2) return 0.0;
    const double m = mean();
    double m2 = 0.0;
    for (double v : values_) m2 += (v - m) * (v - m);
    return std::sqrt(m2 / static_cast<double>(values_.size() - 1));
  }

  /// Fraction of samples <= x (empirical CDF evaluated at x).
  double cdf_at(double x) const {
    if (values_.empty()) return std::nan("");
    ensure_sorted();
    const auto it = std::upper_bound(values_.begin(), values_.end(), x);
    return static_cast<double>(it - values_.begin()) /
           static_cast<double>(values_.size());
  }

  /// Emits `points` evenly spaced (value, cumulative fraction) pairs for
  /// plotting a CDF the way the paper's figures do.
  std::vector<std::pair<double, double>> cdf_points(std::size_t points) const {
    std::vector<std::pair<double, double>> out;
    if (values_.empty() || points == 0) return out;
    ensure_sorted();
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
      const double frac = points == 1
                              ? 1.0
                              : static_cast<double>(i) /
                                    static_cast<double>(points - 1);
      const auto idx = static_cast<std::size_t>(
          frac * static_cast<double>(values_.size() - 1));
      out.emplace_back(values_[idx],
                       static_cast<double>(idx + 1) /
                           static_cast<double>(values_.size()));
    }
    return out;
  }

  void merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

}  // namespace planck::stats
