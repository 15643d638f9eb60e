#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "controller/controller.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"
#include "switchsim/switch.hpp"
#include "te/te_state.hpp"

namespace planck::te {

struct PollTeConfig {
  /// Polling period: 1 s emulates Hedera-style systems ("Poll-1s"), 100 ms
  /// the faster variant ("Poll-0.1s") of §7.1.
  sim::Duration interval = sim::seconds(1);
  /// Time to read the flow counters from every switch — state-of-the-art
  /// counter polling takes 75-200 ms per Table 1; a fraction of that here
  /// since our emulated poller, like the paper's, reads a small testbed.
  sim::Duration poll_latency = sim::milliseconds(25);
};

/// The polling traffic-engineering baseline (§7.1 "Poll-1s"/"Poll-0.1s"):
/// periodically reads per-flow byte counters from every switch, estimates
/// rates from the deltas, and runs Hedera-style global first-fit placement
/// of elephant flows over the pre-installed trees.
class PollTe {
 public:
  /// Throws std::invalid_argument when a switch in `switches` keeps no
  /// per-flow counters (SwitchConfig::flow_accounting off).
  PollTe(sim::Simulation& simulation, controller::Controller& controller,
         std::vector<switchsim::Switch*> switches,
         const PollTeConfig& config);

  void start();
  void stop() { poll_timer_.cancel(); }

  std::uint64_t polls() const { return polls_; }
  std::uint64_t reroutes() const { return reroutes_; }

  /// Hedera's demand estimator: given the set of active flows, compute
  /// each flow's natural (max-min fair) demand as a fraction of host line
  /// rate, assuming every flow is backlogged. Measured rates understate
  /// what a flow *wants* when it is congested; placement must use demand.
  /// Exposed for tests.
  static std::vector<double> estimate_demands(
      const std::vector<KnownFlow>& flows, int num_hosts);

 private:
  void poll();
  void place_flows(
      std::vector<KnownFlow> flows);

  sim::Simulation& sim_;
  controller::Controller& controller_;
  std::vector<switchsim::Switch*> switches_;
  PollTeConfig config_;

  /// Previous byte counts per flow, for rate-from-delta.
  std::map<net::FlowKey, sim::Bytes> prev_bytes_;
  sim::Time prev_poll_time_ = 0;

  std::uint64_t polls_ = 0;
  std::uint64_t reroutes_ = 0;
  sim::Timer poll_timer_;
};

}  // namespace planck::te
