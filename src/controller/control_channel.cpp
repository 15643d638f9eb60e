#include "controller/control_channel.hpp"

#include <memory>
#include <utility>

#include "obs/obs.hpp"

namespace planck::controller {

namespace {
/// One-way latency of a control-channel message.
constexpr sim::Duration kLatency = sim::microseconds(150);
/// Extra latency of a message hit by a spike (ControlChannelConfig's
/// spike_prob).
constexpr sim::Duration kSpikeLatency = sim::milliseconds(5);
/// Exponential backoff factor of the RPC retransmission timeout.
constexpr double kRpcBackoff = 2.0;
}  // namespace

void ControlChannel::register_metrics() {
  obs::Telemetry* telemetry = sim_.telemetry();
  if (telemetry == nullptr) return;
  obs::MetricRegistry& reg = telemetry->metrics();
  // One channel per controller in practice; were several constructed on
  // one simulation, the last one's gauges win (registration replaces the
  // callback, deterministically — construction order is program order).
  reg.gauge("control_channel", "rpc_calls",
            [this] { return static_cast<double>(rpc_calls_); });
  reg.gauge("control_channel", "rpc_retries",
            [this] { return static_cast<double>(rpc_retries_); });
  reg.gauge("control_channel", "rpc_failures",
            [this] { return static_cast<double>(rpc_failures_); });
  reg.gauge("control_channel", "messages_lost",
            [this] { return static_cast<double>(messages_lost_); });
}

struct ControlChannel::RpcState {
  std::function<bool()> request;
  std::function<void(bool)> on_result;
  bool done = false;
};

int ControlChannel::deliveries() {
  if (config_.loss_prob > 0.0 && rng_.chance(config_.loss_prob)) {
    ++messages_lost_;
    return 0;
  }
  if (config_.dup_prob > 0.0 && rng_.chance(config_.dup_prob)) {
    ++messages_duplicated_;
    return 2;
  }
  return 1;
}

sim::Duration ControlChannel::one_way_latency() {
  sim::Duration latency = kLatency;
  if (config_.spike_prob > 0.0 && rng_.chance(config_.spike_prob)) {
    ++latency_spikes_;
    latency += kSpikeLatency;
  }
  return latency;
}

void ControlChannel::send(std::function<void()> deliver) {
  ++messages_sent_;
  const int copies = deliveries();
  for (int i = 0; i < copies; ++i) {
    sim_.schedule(one_way_latency(), [deliver] { deliver(); });
  }
}

void ControlChannel::call(std::function<bool()> request,
                          std::function<void(bool)> on_result) {
  ++rpc_calls_;
  auto state = std::make_shared<RpcState>();
  state->request = std::move(request);
  state->on_result = std::move(on_result);
  attempt(std::move(state), 1);
}

void ControlChannel::attempt(std::shared_ptr<RpcState> state,
                             int attempt_number) {
  if (state->done) return;
  if (attempt_number > config_.rpc_max_attempts) {
    ++rpc_failures_;
    state->done = true;
    if (state->on_result) state->on_result(false);
    return;
  }
  if (attempt_number > 1) {
    ++rpc_retries_;
    PLANCK_TRACE_ARGS(sim_, "control_channel", "rpc_retry",
                      obs::argf("\"attempt\":%d", attempt_number));
  }

  // Request leg.
  ++messages_sent_;
  const int request_copies = deliveries();
  for (int i = 0; i < request_copies; ++i) {
    sim_.schedule(one_way_latency(), [this, state] {
      if (!state->request()) return;  // target dead: no ack, caller retries
      // Ack leg.
      ++messages_sent_;
      const int ack_copies = deliveries();
      for (int j = 0; j < ack_copies; ++j) {
        sim_.schedule(one_way_latency(), [this, state] {
          if (state->done) return;  // duplicate or post-retry ack
          state->done = true;
          ++rpc_successes_;
          if (state->on_result) state->on_result(true);
        });
      }
    });
  }

  // Retransmission timer with exponential backoff.
  sim::Duration timeout = config_.rpc_timeout;
  for (int i = 1; i < attempt_number; ++i) {
    timeout = static_cast<sim::Duration>(static_cast<double>(timeout) *
                                         kRpcBackoff);
  }
  sim_.schedule(timeout, [this, state, attempt_number] {
    attempt(state, attempt_number + 1);
  });
}

}  // namespace planck::controller
