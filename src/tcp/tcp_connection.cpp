#include "tcp/tcp_connection.hpp"

#include <algorithm>
#include <cmath>
#include <cassert>

#include "sim/contract.hpp"
#include "tcp/host.hpp"

namespace planck::tcp {

namespace {
constexpr double kHugeWindow = 1e18;

// The Linux 3.5 defaults of the paper's testbed.
/// CUBIC constants (RFC 8312): scaling C and multiplicative decrease.
constexpr double kCubicC = 0.4;
constexpr double kCubicBeta = 0.7;
/// HyStart never fires below this window (segments).
constexpr int kHystartMinCwndSegments = 16;
/// Initial congestion window in segments (Linux: 10).
constexpr int kInitialCwndSegments = 10;
/// Lower bound on the retransmission timeout (Linux: 200 ms).
constexpr sim::Duration kMinRto = sim::milliseconds(200);
/// RTO before any RTT sample exists (RFC 6298 says 1 s).
constexpr sim::Duration kInitialRto = sim::seconds(1);
/// Duplicate ACKs before fast retransmit.
constexpr int kDupackThreshold = 3;
/// ACK every N-th in-order segment once past quickack (Linux: 2).
constexpr int kAckEvery = 2;
/// Delayed-ACK timer (Linux: up to 40 ms for bulk receivers).
constexpr sim::Duration kDelayedAckTimeout = sim::milliseconds(40);
/// Number of initial segments ACKed immediately (quickack mode).
constexpr int kQuickackSegments = 16;
/// Hard cap on the congestion window in bytes (Linux 3.5 default
/// tcp_wmem/tcp_rmem max is ~4-6 MB; this also bounds how far slow
/// start can overshoot a 4 MB switch buffer).
constexpr sim::Bytes kMaxWindowBytes = sim::mebibytes(6);

/// A segment carrying `key`'s 5-tuple and `flags`; the caller fills in
/// sequence numbers and payload.
net::Packet make_segment(const net::FlowKey& key, std::uint8_t flags) {
  net::Packet pkt;
  pkt.src_ip = key.src_ip;
  pkt.dst_ip = key.dst_ip;
  pkt.src_port = key.src_port;
  pkt.dst_port = key.dst_port;
  pkt.proto = key.proto;
  pkt.flags = flags;
  return pkt;
}
}  // namespace

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

TcpSender::TcpSender(sim::Simulation& simulation, Host& host,
                     net::FlowKey key, std::int64_t total_bytes,
                     const TcpConfig& config, CompletionCallback on_complete)
    : sim_(simulation),
      host_(host),
      key_(key),
      config_(config),
      on_complete_(std::move(on_complete)),
      total_bytes_(sim::Bytes{total_bytes}),
      cwnd_(static_cast<double>(kInitialCwndSegments * net::kMss)),
      ssthresh_(kHugeWindow),
      rto_(kInitialRto),
      rto_timer_(simulation, [this] { on_rto(); }) {
  stats_.total_bytes = sim::Bytes{total_bytes};
}

void TcpSender::start() {
  stats_.started_at = sim_.now();
  probe_sent_ = sim_.now();  // handshake RTT sample
  host_.send(make_segment(key_, net::kSyn));
  ++stats_.packets_sent;
  restart_rto();
}

void TcpSender::handle_segment(const net::Packet& packet) {
  if (stats_.complete) return;

  if (state_ == State::kSynSent) {
    if (packet.has_flag(net::kSyn) && packet.has_flag(net::kAck)) {
      stats_.established_at = sim_.now();
      note_rtt_sample(sim_.now() - probe_sent_);
      probe_seq_ = -1;
      state_ = State::kSlowStart;
      rto_backoff_ = 0;
      if (total_bytes_.count() == 0) {
        finish();
        return;
      }
      restart_rto();
      try_send();
    }
    return;
  }

  if (!packet.has_flag(net::kAck) || packet.payload != 0) return;
  const auto ack = static_cast<std::int64_t>(packet.ack);

  if (ack > snd_una_) {
    const std::int64_t newly_acked = ack - snd_una_;
    snd_una_ = ack;
    dupacks_ = 0;
    rto_backoff_ = 0;

    while (!inflight_first_tx_.empty() &&
           inflight_first_tx_.front().first < snd_una_) {
      inflight_first_tx_.pop_front();
    }
    if (probe_seq_ >= 0 && ack >= probe_seq_) {
      note_rtt_sample(sim_.now() - probe_sent_);
      probe_seq_ = -1;
    }

    switch (state_) {
      case State::kRecovery:
        if (ack >= recover_) {
          cwnd_ = ssthresh_;
          state_ = State::kCongestionAvoidance;
          high_rtx_ = 0;
        } else {
          // Partial ACK: repair the next hole (SACK-guided), deflate.
          recovery_retransmit(packet);
          cwnd_ = std::max<double>(
              cwnd_ - static_cast<double>(newly_acked) +
                  static_cast<double>(net::kMss),
              static_cast<double>(net::kMss));
        }
        break;
      case State::kSlowStart:
        // Appropriate byte counting (RFC 3465, L=2).
        cwnd_ += static_cast<double>(
            std::min<std::int64_t>(newly_acked, 2 * net::kMss));
        if (cwnd_ >= ssthresh_) {
          state_ = State::kCongestionAvoidance;
        } else if (config_.hystart_rtt_factor > 0 && srtt_valid_ &&
                   min_rtt_ > 0 &&
                   cwnd_ >= static_cast<double>(kHystartMinCwndSegments *
                                                net::kMss) &&
                   srtt_ > config_.hystart_rtt_factor * min_rtt_) {
          // HyStart: queueing delay says the pipe is full — stop doubling
          // before a whole window of overshoot hits the switch buffer.
          ssthresh_ = cwnd_;
          state_ = State::kCongestionAvoidance;
        }
        break;
      case State::kCongestionAvoidance:
        grow_congestion_avoidance(newly_acked);
        break;
      case State::kSynSent:
        break;
    }
    cwnd_ = std::min(cwnd_, static_cast<double>(kMaxWindowBytes.count()));

    if (snd_una_ >= total_bytes_.count()) {
      finish();
      return;
    }
    restart_rto();
    try_send();
  } else if (ack == snd_una_) {
    if (state_ == State::kRecovery) {
      cwnd_ += static_cast<double>(net::kMss);
      recovery_retransmit(packet);
      try_send();
    } else if (++dupacks_ == kDupackThreshold) {
      enter_recovery();
    }
  }
}

void TcpSender::try_send() {
  if (state_ == State::kSynSent || stats_.complete) return;
  const auto wnd = static_cast<std::int64_t>(
      std::min(cwnd_, static_cast<double>(kMaxWindowBytes.count())));
  while (next_seq_ < total_bytes_.count()) {
    const std::int64_t inflight = next_seq_ - snd_una_;
    if (inflight >= wnd) break;
    const std::int64_t len =
        std::min<std::int64_t>(net::kMss, total_bytes_.count() - next_seq_);
    const sim::Bytes wire = sim::bytes(len + net::kTcpHeader +
                                       net::kIpHeader + net::kEthernetOverhead);
    if (host_.nic_headroom() < wire) {
      if (!waiting_for_nic_) {
        waiting_for_nic_ = true;
        host_.wait_for_nic(this);
      }
      break;
    }
    // Retransmission after an RTO rewinds next_seq_, so a "new" send may
    // actually be a re-send of bytes with a recorded first-tx time.
    const bool is_rtx = next_seq_ < highest_sent_;
    send_segment(next_seq_, len, is_rtx);
    next_seq_ += len;
  }
}

void TcpSender::on_nic_writable() {
  waiting_for_nic_ = false;
  try_send();
}

void TcpSender::send_segment(std::int64_t seq, std::int64_t len,
                             bool retransmit) {
  net::Packet pkt = make_segment(key_, net::kAck);
  // Final segment of the transfer carries PSH, prompting an immediate ACK
  // at the receiver (as real stacks do), so an odd-sized tail does not sit
  // behind the delayed-ACK timer.
  if (seq + len >= total_bytes_.count()) pkt.flags |= net::kPsh;
  pkt.seq = static_cast<std::uint64_t>(seq);
  pkt.payload = static_cast<std::uint32_t>(len);

  sim::Time first_tx = sim_.now();
  if (retransmit) {
    for (const auto& [s, t] : inflight_first_tx_) {
      if (s == seq) {
        first_tx = t;
        break;
      }
      if (s > seq) break;
    }
    ++stats_.retransmits;
    // Karn's rule: an outstanding RTT probe is invalid once anything is
    // retransmitted.
    probe_seq_ = -1;
  } else {
    inflight_first_tx_.emplace_back(seq, first_tx);
    highest_sent_ = std::max(highest_sent_, seq + len);
    if (probe_seq_ < 0) {
      probe_seq_ = seq + len;
      probe_sent_ = sim_.now();
    }
  }
  pkt.first_sent_at = first_tx;
  host_.send(pkt);
  ++stats_.packets_sent;
  if (!rto_timer_.pending()) restart_rto();
}

void TcpSender::on_congestion_event() {
  const auto inflight =
      static_cast<double>(std::min<std::int64_t>(next_seq_ - snd_una_,
                                                 static_cast<std::int64_t>(
                                                     cwnd_)));
  const double w_seg = inflight / static_cast<double>(net::kMss);
  // Fast convergence (RFC 8312 §4.6).
  cubic_w_max_ =
      w_seg < cubic_w_max_ ? w_seg * (1.0 + kCubicBeta) / 2.0 : w_seg;
  cubic_epoch_ = -1;
  ssthresh_ = std::max(inflight * kCubicBeta,
                       static_cast<double>(2 * net::kMss));
}

void TcpSender::grow_congestion_avoidance(std::int64_t newly_acked) {
  // CUBIC (RFC 8312): window chases W(t) = C*(t-K)^3 + W_max.
  const double mss = static_cast<double>(net::kMss);
  const double cwnd_seg = cwnd_ / mss;
  if (cubic_epoch_ < 0) {
    cubic_epoch_ = sim_.now();
    if (cubic_w_max_ < cwnd_seg) cubic_w_max_ = cwnd_seg;
    cubic_k_ = std::cbrt(cubic_w_max_ * (1.0 - kCubicBeta) / kCubicC);
  }
  const double rtt_s = srtt_valid_ ? srtt_ / 1e9 : 200e-6;
  const double t =
      static_cast<double>(sim_.now() - cubic_epoch_) / 1e9 + rtt_s;
  double target =
      kCubicC * (t - cubic_k_) * (t - cubic_k_) * (t - cubic_k_) +
      cubic_w_max_;
  // TCP-friendly region (RFC 8312 §4.2): at small RTTs standard AIMD
  // outgrows the cubic function; CUBIC must never be slower than Reno.
  const double beta = kCubicBeta;
  const double w_est = cubic_w_max_ * beta +
                       3.0 * (1.0 - beta) / (1.0 + beta) * (t / rtt_s);
  target = std::max(target, w_est);
  if (target > cwnd_seg) {
    // Approach the target over roughly one RTT of ACKs.
    cwnd_ += mss * (target - cwnd_seg) / cwnd_seg *
             (static_cast<double>(newly_acked) / mss);
  } else {
    // Plateau: probe very gently (RFC 8312's minimum growth).
    cwnd_ += 0.01 * mss * static_cast<double>(newly_acked) / cwnd_seg / mss;
  }
}

void TcpSender::enter_recovery() {
  on_congestion_event();
  recover_ = next_seq_;
  state_ = State::kRecovery;
  cwnd_ = ssthresh_ + 3.0 * static_cast<double>(net::kMss);
  const std::int64_t len =
      std::min<std::int64_t>(net::kMss, total_bytes_.count() - snd_una_);
  send_segment(snd_una_, len, /*retransmit=*/true);
  high_rtx_ = snd_una_ + len;
  try_send();
}

void TcpSender::recovery_retransmit(const net::Packet& ack_packet) {
  // The hole is [snd_una_, sack_start): everything below the receiver's
  // first out-of-order block is missing. Without SACK information, repair
  // conservatively one segment at a time (classic NewReno).
  std::int64_t hole_end;
  if (ack_packet.sack_start != 0) {
    hole_end = std::min<std::int64_t>(
        static_cast<std::int64_t>(ack_packet.sack_start), recover_);
  } else {
    hole_end = std::min(snd_una_ + net::kMss, recover_);
  }
  std::int64_t from = std::max(snd_una_, high_rtx_);
  int budget = 2;  // at most two repairs per ACK keeps the burst bounded
  while (from < hole_end && from < total_bytes_.count() && budget-- > 0) {
    const std::int64_t len = std::min<std::int64_t>(
        net::kMss, std::min(hole_end - from, total_bytes_.count() - from));
    send_segment(from, len, /*retransmit=*/true);
    from += len;
  }
  high_rtx_ = std::max(high_rtx_, from);
}

void TcpSender::on_rto() {
  if (stats_.complete) return;
  ++stats_.timeouts;
  ++rto_backoff_;
  probe_seq_ = -1;
  dupacks_ = 0;

  if (state_ == State::kSynSent) {
    host_.send(make_segment(key_, net::kSyn));
    ++stats_.packets_sent;
    ++stats_.retransmits;
    restart_rto();
    return;
  }

  on_congestion_event();
  cwnd_ = static_cast<double>(net::kMss);
  state_ = State::kSlowStart;
  recover_ = next_seq_;
  high_rtx_ = 0;
  // Go-back-N: rewind and let slow start re-send the window; first-tx
  // timestamps for these bytes are preserved in inflight_first_tx_.
  next_seq_ = snd_una_;
  restart_rto();
  try_send();
}

void TcpSender::restart_rto() {
  sim::Duration rto = rto_;
  for (int i = 0; i < rto_backoff_ && rto < sim::seconds(60); ++i) rto *= 2;
  rto_timer_.schedule(rto);
}

void TcpSender::note_rtt_sample(sim::Duration rtt) {
  const double r = static_cast<double>(rtt);
  if (min_rtt_ <= 0 || r < min_rtt_) min_rtt_ = r;
  if (!srtt_valid_) {
    srtt_ = r;
    rttvar_ = r / 2.0;
    srtt_valid_ = true;
  } else {
    constexpr double kAlpha = 1.0 / 8.0;
    constexpr double kBeta = 1.0 / 4.0;
    rttvar_ = (1 - kBeta) * rttvar_ + kBeta * std::abs(srtt_ - r);
    srtt_ = (1 - kAlpha) * srtt_ + kAlpha * r;
  }
  const double raw = srtt_ + 4.0 * rttvar_;
  rto_ = std::max<sim::Duration>(static_cast<sim::Duration>(raw), kMinRto);
}

void TcpSender::finish() {
  stats_.complete = true;
  stats_.completed_at = sim_.now();
  rto_timer_.cancel();

  net::Packet fin = make_segment(key_, net::kFin | net::kAck);
  fin.seq = static_cast<std::uint64_t>(total_bytes_.count());
  host_.send(fin);
  ++stats_.packets_sent;

  if (on_complete_) on_complete_(stats_);
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

TcpReceiver::TcpReceiver(sim::Simulation& simulation, Host& host,
                         net::FlowKey key)
    : sim_(simulation),
      host_(host),
      key_(key),
      delayed_ack_timer_(simulation, [this] { send_ack(); }) {}

void TcpReceiver::handle_segment(const net::Packet& packet) {
  if (packet.has_flag(net::kSyn)) {
    host_.send(make_segment(key_.reversed(), net::kSyn | net::kAck));
    return;
  }
  if (packet.has_flag(net::kFin)) {
    saw_fin_ = true;
    send_ack();
    return;
  }
  if (packet.payload == 0) return;

  const auto s = static_cast<std::int64_t>(packet.seq);
  const std::int64_t e = s + packet.payload;
  ++segments_seen_;

  if (e <= rcv_nxt_) {
    // Fully duplicate segment: re-ACK immediately so the sender advances.
    send_ack();
    return;
  }
  if (s > rcv_nxt_) {
    // Hole: buffer out of order, send an immediate duplicate ACK.
    auto it = ooo_.lower_bound(s);
    if (it != ooo_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= s) it = prev;
    }
    std::int64_t ns = s, ne = e;
    while (it != ooo_.end() && it->first <= ne) {
      ns = std::min(ns, it->first);
      ne = std::max(ne, it->second);
      it = ooo_.erase(it);
    }
    ooo_[ns] = ne;
    send_ack();
    return;
  }

  // In-order delivery, possibly filling earlier holes.
  const bool had_holes = !ooo_.empty();
  rcv_nxt_ = e;
  while (!ooo_.empty() && ooo_.begin()->first <= rcv_nxt_) {
    rcv_nxt_ = std::max(rcv_nxt_, ooo_.begin()->second);
    ooo_.erase(ooo_.begin());
  }

  if (had_holes || packet.has_flag(net::kPsh) ||
      segments_seen_ <= kQuickackSegments) {
    send_ack();
    return;
  }
  if (++unacked_segments_ >= kAckEvery) {
    send_ack();
  } else {
    arm_delayed_ack();
  }
}

void TcpReceiver::send_ack() {
  delayed_ack_timer_.cancel();
  unacked_segments_ = 0;
  net::Packet ack = make_segment(key_.reversed(), net::kAck);
  if (!ooo_.empty()) {
    PLANCK_CONTRACT(ooo_.begin()->first > rcv_nxt_ && rcv_nxt_ >= 0,
                    "sack-nonzero: the lowest out-of-order block starts "
                    "above rcv_nxt >= 0, so a present block is never 0");
    ack.sack_start = static_cast<std::uint64_t>(ooo_.begin()->first);
  }
  ack.ack = static_cast<std::uint64_t>(rcv_nxt_);
  host_.send(ack);
}

void TcpReceiver::arm_delayed_ack() {
  if (!delayed_ack_timer_.pending()) {
    delayed_ack_timer_.schedule(kDelayedAckTimeout);
  }
}

}  // namespace planck::tcp
