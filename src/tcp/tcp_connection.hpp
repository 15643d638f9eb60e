#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"

namespace planck::tcp {

class Host;

/// TCP behaviour knobs. The stack is the Linux 3.5 one of the paper's
/// testbed (its fixed defaults are constants in tcp_connection.cpp).
/// Congestion control is CUBIC, that kernel's default. It matters at
/// 10 Gbps: AIMD recovers a multi-MB window over many seconds, far slower
/// than the paper's sub-second dynamics.
struct TcpConfig {
  /// HyStart-style delay-based slow-start exit (on by default in the
  /// Linux CUBIC of the paper's testbed): leave slow start when the
  /// smoothed RTT exceeds hystart_rtt_factor x the minimum RTT seen —
  /// i.e. when queueing delay shows the pipe is full — instead of
  /// overshooting the switch buffer by a whole window. 0 disables.
  double hystart_rtt_factor = 1.5;
};

/// Lifetime statistics of one flow.
struct FlowStats {
  sim::Bytes total_bytes{0};
  sim::Time started_at = 0;      // SYN enqueued
  sim::Time established_at = 0;  // SYN-ACK received
  sim::Time completed_at = 0;    // all data cumulatively ACKed
  sim::Packets packets_sent{0};
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  bool complete = false;

  /// Goodput over the flow's full lifetime, bits per second.
  double throughput_bps() const {
    if (!complete || completed_at <= started_at) return 0.0;
    return static_cast<double>(total_bytes.count()) * 8.0 /
           sim::to_seconds(completed_at - started_at);
  }
};

/// One unidirectional bulk TCP transfer: this object is the *sender* state
/// machine — slow start with HyStart, CUBIC congestion avoidance,
/// SACK-guided fast retransmit/recovery, RTO with exponential backoff —
/// plus, on the remote Host, a lightweight receiver created on SYN arrival
/// (see Host).
class TcpSender {
 public:
  using CompletionCallback = std::function<void(const FlowStats&)>;

  TcpSender(sim::Simulation& simulation, Host& host, net::FlowKey key,
            std::int64_t total_bytes, const TcpConfig& config,
            CompletionCallback on_complete);

  /// Sends the SYN and begins the transfer.
  void start();

  /// Incoming segment for this connection (ACKs, SYN-ACK).
  void handle_segment(const net::Packet& packet);

  /// Host calls this when NIC queue space frees up after backpressure.
  void on_nic_writable();

  const net::FlowKey& key() const { return key_; }
  const FlowStats& stats() const { return stats_; }
  bool complete() const { return stats_.complete; }
  std::int64_t cwnd_bytes() const { return static_cast<std::int64_t>(cwnd_); }
  std::int64_t bytes_in_flight() const { return next_seq_ - snd_una_; }
  std::int64_t snd_una() const { return snd_una_; }

 private:
  enum class State { kSynSent, kSlowStart, kCongestionAvoidance, kRecovery };

  void try_send();
  void send_segment(std::int64_t seq, std::int64_t len, bool retransmit);
  void enter_recovery();
  /// Multiplicative decrease + CUBIC epoch bookkeeping on a loss event.
  void on_congestion_event();
  /// Window growth during congestion avoidance for one ACK.
  void grow_congestion_avoidance(std::int64_t newly_acked);
  /// SACK-style hole repair while in recovery: retransmits up to two
  /// segments of the hole bounded by the ACK's SACK block, continuing from
  /// the highest byte already retransmitted this episode.
  void recovery_retransmit(const net::Packet& ack_packet);
  void on_rto();
  void restart_rto();
  void note_rtt_sample(sim::Duration rtt);
  void finish();

  sim::Simulation& sim_;
  Host& host_;
  net::FlowKey key_;
  TcpConfig config_;
  CompletionCallback on_complete_;
  FlowStats stats_;

  State state_ = State::kSynSent;
  sim::Bytes total_bytes_;
  std::int64_t next_seq_ = 0;      // next byte to send
  std::int64_t highest_sent_ = 0;  // end of the highest byte ever sent
  std::int64_t snd_una_ = 0;       // oldest unacknowledged byte
  double cwnd_ = 0;             // bytes
  double ssthresh_;             // bytes
  std::int64_t recover_ = 0;    // recovery point
  std::int64_t high_rtx_ = 0;   // end of highest byte retransmitted in
                                // the current recovery episode
  int dupacks_ = 0;

  // First-transmission timestamps of in-flight segments, front = oldest.
  // Used to preserve Packet::first_sent_at across retransmissions so
  // receiver-side latency includes retransmission delay.
  std::deque<std::pair<std::int64_t, sim::Time>> inflight_first_tx_;

  // CUBIC state (RFC 8312).
  double cubic_w_max_ = 0;       // window at the last loss, in segments
  sim::Time cubic_epoch_ = -1;   // start of the current growth epoch
  double cubic_k_ = 0;           // time (s) to reach w_max again

  // RTT estimation (RFC 6298), with Karn's rule via probe invalidation.
  bool srtt_valid_ = false;
  double srtt_ = 0;
  double rttvar_ = 0;
  double min_rtt_ = 0;  // lowest sample seen (HyStart baseline)
  sim::Duration rto_;
  int rto_backoff_ = 0;
  std::int64_t probe_seq_ = -1;
  sim::Time probe_sent_ = 0;

  sim::Timer rto_timer_;
  bool waiting_for_nic_ = false;
};

/// Receiver half: reassembles, generates cumulative ACKs (with delayed-ACK
/// and quickack behaviour), and counts delivered bytes.
class TcpReceiver {
 public:
  TcpReceiver(sim::Simulation& simulation, Host& host, net::FlowKey key);

  void handle_segment(const net::Packet& packet);

  const net::FlowKey& key() const { return key_; }
  std::int64_t rcv_nxt() const { return rcv_nxt_; }
  std::int64_t bytes_delivered() const { return rcv_nxt_; }
  bool saw_fin() const { return saw_fin_; }

 private:
  void send_ack();
  void arm_delayed_ack();

  sim::Simulation& sim_;
  Host& host_;
  net::FlowKey key_;  // key of the *incoming* direction (sender -> us)

  std::int64_t rcv_nxt_ = 0;
  // Out-of-order byte ranges [start, end), keyed by start.
  std::map<std::int64_t, std::int64_t> ooo_;
  int unacked_segments_ = 0;
  int segments_seen_ = 0;
  bool saw_fin_ = false;
  sim::Timer delayed_ack_timer_;
};

}  // namespace planck::tcp
