#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/rate_estimator.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace planck::core {

/// Per-flow state the collector tracks (§3.2.2): a NetFlow-like record
/// with the burst-based rate estimator attached.
struct FlowRecord {
  net::FlowKey key;
  net::MacAddress src_mac = net::kMacNone;
  /// Most recent routing (possibly shadow) destination MAC seen: identifies
  /// the tree the flow currently uses.
  net::MacAddress dst_mac = net::kMacNone;
  sim::Time first_seen = 0;
  sim::Time last_seen = 0;
  std::uint64_t samples = 0;
  std::uint64_t sample_bytes = 0;
  BurstRateEstimator estimator;
  /// Ports at this collector's switch, inferred from routing info; -1 when
  /// inference failed.
  int in_port = -1;
  int out_port = -1;
  /// The rate currently counted toward the out_port's utilization
  /// aggregate; maintained by the Collector (0 when stale).
  double contributing_bps = 0.0;

  double rate_bps() const {
    return estimator.has_estimate() ? estimator.rate_bps() : 0.0;
  }
};

/// The collector's NetFlow-like table of active flows, with idle-timeout
/// eviction.
class FlowTable {
 public:
  explicit FlowTable(const EstimatorConfig& estimator_config = {})
      : estimator_config_(estimator_config) {}

  /// Finds or creates the record for `key`.
  FlowRecord& upsert(const net::FlowKey& key, sim::Time now) {
    auto [it, inserted] = flows_.try_emplace(key);
    FlowRecord& rec = it->second;
    if (inserted) {
      rec.key = key;
      rec.first_seen = now;
      rec.estimator = BurstRateEstimator(estimator_config_);
    }
    rec.last_seen = now;
    return rec;
  }

  FlowRecord* find(const net::FlowKey& key) {
    const auto it = flows_.find(key);
    return it == flows_.end() ? nullptr : &it->second;
  }
  const FlowRecord* find(const net::FlowKey& key) const {
    const auto it = flows_.find(key);
    return it == flows_.end() ? nullptr : &it->second;
  }

  /// Removes flows whose last sample is at or before `cutoff`; returns the
  /// evicted records in flow-key order (the map's order), so the caller
  /// unwinds any aggregates (FP sums in particular) in a reproducible
  /// sequence.
  ///
  /// The boundary is *closed*: the Collector calls this with
  /// `cutoff = now - idle_timeout`, so a flow last seen exactly
  /// `idle_timeout` ago counts as idle and goes now, not one sweep later.
  /// (A flow that produced a sample in the current sweep instant has
  /// `last_seen == now > cutoff` and survives.)
  std::vector<FlowRecord> evict_idle(sim::Time cutoff) {
    std::vector<FlowRecord> evicted;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.last_seen <= cutoff) {
        evicted.push_back(it->second);
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    return evicted;
  }

  std::size_t size() const { return flows_.size(); }

  const std::map<net::FlowKey, FlowRecord>& flows() const { return flows_; }
  std::map<net::FlowKey, FlowRecord>& mutable_flows() { return flows_; }

 private:
  // Single-writer by design: owned by one collector, mutated only
  // from its sample/housekeeping path.
  EstimatorConfig estimator_config_;
  std::map<net::FlowKey, FlowRecord> flows_;
};

}  // namespace planck::core
