#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace planck::controller {

/// Failure/latency model of the management network between the controller
/// and the switches/collectors. Defaults model the paper's healthy testbed
/// (a 150 us one-way RPC, no loss); the fault plane turns the knobs up.
struct ControlChannelConfig {
  /// Probability a message (request or ack leg) is lost.
  double loss_prob = 0.0;
  /// Probability a delivered message is duplicated (receivers must be
  /// idempotent — rule installs and packet-outs are).
  double dup_prob = 0.0;
  /// Probability a delivered message takes 5 ms extra (a management-network
  /// congestion spike).
  double spike_prob = 0.0;

  /// RPC reliability layer: initial retransmission timeout, doubled on
  /// every retry, and the attempt ceiling after which the call fails.
  sim::Duration rpc_timeout = sim::milliseconds(1);
  int rpc_max_attempts = 8;

  std::uint64_t seed = 0x7a57c0de;
};

/// The control channel: every controller <-> switch/collector exchange goes
/// through here. Two primitives:
///
///  - send():  fire-and-forget one-way message (may be lost/duplicated).
///  - call():  at-least-once RPC. The request leg delivers `request` at the
///    far end; a request that returns true is acked (the ack leg is lossy
///    too). The caller retries with exponential backoff until acked or
///    `rpc_max_attempts` is exhausted — the no-unbounded-retries ceiling.
///    A request returning false models a dead target (crashed switch):
///    executed-but-unacknowledged, so the caller keeps retrying.
///
/// All randomness comes from the channel's own seeded generator and all
/// timing from the event queue, so faulted runs replay deterministically.
class ControlChannel {
 public:
  ControlChannel(sim::Simulation& simulation,
                 const ControlChannelConfig& config)
      : sim_(simulation), config_(config), rng_(config.seed) {
    register_metrics();
  }

  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  /// One-way message; `deliver` runs at the far end after the channel
  /// latency, zero times (lost), once, or twice (duplicated).
  void send(std::function<void()> deliver);

  /// Reliable RPC (see class comment). `on_result(true)` runs once the ack
  /// arrives; `on_result(false)` after the final attempt times out.
  void call(std::function<bool()> request,
            std::function<void(bool)> on_result = {});

  const ControlChannelConfig& config() const { return config_; }

  // --- statistics -------------------------------------------------------
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_lost() const { return messages_lost_; }
  std::uint64_t messages_duplicated() const { return messages_duplicated_; }
  std::uint64_t latency_spikes() const { return latency_spikes_; }
  std::uint64_t rpc_calls() const { return rpc_calls_; }
  std::uint64_t rpc_retries() const { return rpc_retries_; }
  std::uint64_t rpc_successes() const { return rpc_successes_; }
  std::uint64_t rpc_failures() const { return rpc_failures_; }

 private:
  // Single-writer by design: the channel lives on the controller's
  // partition; RPC state advances only from event-loop callbacks.
  struct RpcState;

  /// Registers this channel's gauges with the telemetry plane, if one is
  /// installed on the simulation (DESIGN.md §9).
  void register_metrics();
  void attempt(std::shared_ptr<RpcState> state, int attempt_number);
  /// 0 (lost), 1, or 2 (duplicated) deliveries for one message.
  int deliveries();
  sim::Duration one_way_latency();

  sim::Simulation& sim_;
  ControlChannelConfig config_;
  sim::Rng rng_;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_lost_ = 0;
  std::uint64_t messages_duplicated_ = 0;
  std::uint64_t latency_spikes_ = 0;
  std::uint64_t rpc_calls_ = 0;
  std::uint64_t rpc_retries_ = 0;
  std::uint64_t rpc_successes_ = 0;
  std::uint64_t rpc_failures_ = 0;
};

}  // namespace planck::controller
