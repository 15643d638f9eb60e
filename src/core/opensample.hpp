#pragma once

#include <cstdint>
#include <map>

#include "core/rate_estimator.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace planck::core {

/// The OpenSample-style measurement baseline (§2.1, [41]): consumes the
/// switch's control-plane sFlow samples (rate-limited to ~300/s by the
/// CPU/PCI path on the paper's G8264) and, like OpenSample, uses TCP
/// sequence numbers to improve accuracy over naive count-scaling. Exists
/// so Table 1's "sFlow/OpenSample" row can be *measured* in the same
/// harness rather than quoted: at 300 samples/s spread over many flows, a
/// stable per-flow estimate takes on the order of 100 ms.
///
/// Wire it to a switch with:
///   sw->set_sflow_handler([&](const net::Packet& p, int in, int out,
///                             std::uint32_t rate) {
///     opensample.add_sample(sim.now(), p);
///   });
class OpenSampleEstimator {
 public:
  struct FlowState {
    sim::Time first_sample = 0;
    sim::Time last_sample = 0;
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq_end = 0;
    std::uint64_t samples = 0;

    /// Sequence-number based rate over the whole observation window —
    /// OpenSample's estimator (no burst clustering; the sample stream is
    /// far too sparse for that).
    double rate_bps() const {
      if (samples < 2 || last_sample <= first_sample ||
          last_seq_end <= first_seq) {
        return 0.0;
      }
      return static_cast<double>(last_seq_end - first_seq) * 8.0 /
             sim::to_seconds(last_sample - first_sample);
    }
    /// Time spanned by the samples backing the estimate: the measurement
    /// latency of this scheme.
    sim::Duration window() const { return last_sample - first_sample; }
  };

  void add_sample(sim::Time t, const net::Packet& packet) {
    if (packet.proto == net::Protocol::kArp || packet.payload == 0) return;
    ++samples_;
    FlowState& fs = flows_[packet.flow_key()];
    const std::uint64_t seq_end = packet.seq + packet.payload;
    if (fs.samples == 0) {
      fs.first_sample = t;
      fs.first_seq = packet.seq;
      fs.last_seq_end = seq_end;
    } else if (packet.seq < fs.last_seq_end) {
      return;  // retransmission/reorder: same rule as Planck (§3.2.2)
    }
    fs.last_sample = t;
    fs.last_seq_end = seq_end;
    ++fs.samples;
  }

  const FlowState* find(const net::FlowKey& key) const {
    const auto it = flows_.find(key);
    return it == flows_.end() ? nullptr : &it->second;
  }

  std::uint64_t samples_seen() const { return samples_; }
  std::size_t flows_tracked() const { return flows_.size(); }

 private:
  std::map<net::FlowKey, FlowState> flows_;
  std::uint64_t samples_ = 0;
};

}  // namespace planck::core
