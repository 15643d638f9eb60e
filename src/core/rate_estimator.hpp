#pragma once

#include <cstdint>
#include <deque>

#include "sim/time.hpp"

namespace planck::core {

/// Parameters of the burst-based rate estimator (§3.2.2).
struct EstimatorConfig {
  /// Minimum silence separating two bursts (200 us at 10 Gbps, §3.2.2).
  sim::Duration min_burst_gap = sim::microseconds(200);
  /// Maximum burst length before an estimate is forced out, so steady-state
  /// flows (no gaps) still produce regular estimates (700 us, §3.2.2).
  sim::Duration max_burst = sim::microseconds(700);
};

/// Planck's throughput estimator: works on an *unknown, varying* sampling
/// rate by using TCP sequence numbers as byte counters. Given samples A and
/// B of one flow, throughput = (S_B - S_A) / (t_B - t_A) regardless of how
/// many packets between them were not sampled. Samples are clustered into
/// bursts separated by >= min_burst_gap; each closed burst yields one
/// estimate, and bursts are force-closed after max_burst (§3.2.2).
///
/// Out-of-order samples (sequence going backwards) cannot be told apart
/// from retransmissions and are ignored (§3.2.2).
class BurstRateEstimator {
 public:
  explicit BurstRateEstimator(const EstimatorConfig& config = {})
      : config_(config) {}

  /// Feeds one sample: `seq` is the byte offset of the segment's first
  /// payload byte, `payload` its length, at time `t`. Returns true if this
  /// sample produced a new rate estimate.
  bool add_sample(sim::Time t, std::uint64_t seq, std::uint32_t payload);

  /// Whether any estimate has been produced yet.
  bool has_estimate() const { return has_estimate_; }
  /// Most recent throughput estimate, bits per second.
  double rate_bps() const { return rate_bps_; }
  /// When the most recent estimate was produced.
  sim::Time estimated_at() const { return estimated_at_; }

  /// The sequence range the most recent estimate was computed over. Lets
  /// callers re-derive ground truth over exactly the same byte range
  /// (Figure 11's methodology).
  std::uint64_t window_start_seq() const { return window_start_seq_; }
  std::uint64_t window_end_seq() const { return window_end_seq_; }

  std::uint64_t samples_seen() const { return samples_; }
  std::uint64_t samples_ignored() const { return ignored_; }
  std::uint64_t estimates_produced() const { return estimates_; }

  const EstimatorConfig& config() const { return config_; }

 private:
  EstimatorConfig config_;

  bool burst_open_ = false;
  sim::Time burst_start_time_ = 0;
  std::uint64_t burst_start_seq_ = 0;
  sim::Time last_time_ = 0;
  std::uint64_t last_seq_end_ = 0;  // seq + payload of the newest sample

  bool has_estimate_ = false;
  double rate_bps_ = 0.0;
  sim::Time estimated_at_ = 0;
  std::uint64_t window_start_seq_ = 0;
  std::uint64_t window_end_seq_ = 0;

  std::uint64_t samples_ = 0;
  std::uint64_t ignored_ = 0;
  std::uint64_t estimates_ = 0;
};

/// The naive estimator Figure 10(a) contrasts against: goodput over a
/// fixed rolling window of received samples. Jittery at microsecond scales
/// because a window may catch zero, one or two slow-start bursts.
class RollingAverageEstimator {
 public:
  explicit RollingAverageEstimator(
      sim::Duration window = sim::microseconds(200))
      : window_(window) {}

  void add_sample(sim::Time t, std::uint32_t payload) {
    samples_.emplace_back(t, payload);
    bytes_ += payload;
    evict(t);
  }

  /// Rate over [t - window, t], bits per second.
  double rate_bps(sim::Time t) {
    evict(t);
    return static_cast<double>(bytes_) * 8.0 / sim::to_seconds(window_);
  }

 private:
  void evict(sim::Time t) {
    while (!samples_.empty() && samples_.front().first < t - window_) {
      bytes_ -= samples_.front().second;
      samples_.pop_front();
    }
  }

  sim::Duration window_;
  std::deque<std::pair<sim::Time, std::uint32_t>> samples_;
  std::int64_t bytes_ = 0;
};

}  // namespace planck::core
