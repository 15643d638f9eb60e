#include "core/rate_estimator.hpp"

#include <algorithm>

namespace planck::core {

bool BurstRateEstimator::add_sample(sim::Time t, std::uint64_t seq,
                                    std::uint32_t payload) {
  ++samples_;
  const std::uint64_t seq_end = seq + payload;

  if (!burst_open_) {
    burst_open_ = true;
    burst_start_time_ = t;
    burst_start_seq_ = seq;
    last_time_ = t;
    last_seq_end_ = seq_end;
    return false;
  }

  // A sample whose sequence range is not strictly beyond what we have seen
  // is a retransmission or reordering; it cannot contribute to a byte-count
  // delta, so it is ignored (§3.2.2). The reorder filter still advances
  // past any bytes the sample covers beyond the previous high-water mark:
  // a partially-overlapping sample (a retransmission re-segmented across
  // the old boundary) must not leave last_seq_end_ behind, or the next
  // in-order sample would be mistaken for reordering and dropped too.
  if (seq < last_seq_end_) {
    ++ignored_;
    last_seq_end_ = std::max(last_seq_end_, seq_end);
    return false;
  }

  // The estimate is always (S_B - S_A) / (t_B - t_A) between two actual
  // samples (§3.2.2): A is the anchor (first sample of the current burst)
  // and B this sample. An estimate is emitted when this sample either
  // (a) arrives after a >= min_burst_gap silence — so the window covers the
  // previous burst plus the idle gap, which is what smooths slow-start's
  // on/off pattern into the per-RTT average of Figure 10(b) — or (b) the
  // anchor is >= max_burst old, which keeps estimates flowing for
  // steady-state flows that never pause.
  bool produced = false;
  const bool gap = (t - last_time_) >= config_.min_burst_gap;
  const bool burst_full = (t - burst_start_time_) >= config_.max_burst;
  if ((gap || burst_full) && t > burst_start_time_ &&
      seq > burst_start_seq_) {
    const double bytes = static_cast<double>(seq - burst_start_seq_);
    rate_bps_ = bytes * 8.0 / sim::to_seconds(t - burst_start_time_);
    estimated_at_ = t;
    has_estimate_ = true;
    ++estimates_;
    produced = true;
    window_start_seq_ = burst_start_seq_;
    window_end_seq_ = seq;
    burst_start_time_ = t;
    burst_start_seq_ = seq;
  }

  last_time_ = t;
  last_seq_end_ = seq_end;
  return produced;
}

}  // namespace planck::core
