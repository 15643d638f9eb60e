#pragma once

#include <cassert>
#include <cstdint>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "obs/obs.hpp"
#include "sim/contract.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace planck::net {

/// A unidirectional wire: fixed rate, fixed propagation delay, no queue.
/// Queueing lives in the transmitter (NIC queue / switch port queue); the
/// link just models serialization + propagation. The transmitter must
/// respect free_at() — transmit() asserts the line is idle.
///
/// A link can be administratively downed (cable pull / port disable by the
/// fault plane). While down the transmitter keeps its drain timing — frames
/// occupy the line as usual — but nothing is delivered, and frames already
/// in flight when the link goes down are lost (the epoch guard below).
///
/// Byte conservation (PLANCK_CONTRACT, Debug/ASan/fuzz builds): every byte
/// put on the wire is delivered, lost mid-flight to an admin-down, or still
/// in flight — delivered + lost + in_flight == sent, checked at every
/// transmit and delivery.
class Link {
 public:
  Link(sim::Simulation& simulation, sim::BitsPerSec rate,
       sim::Duration propagation)
      : sim_(simulation), rate_(rate), propagation_(propagation) {
    assert(rate.count() > 0);
  }

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Attaches the receiving end. `destination_sim` names the partition
  /// the receiver's state lives in: when it differs from the
  /// transmitter's simulation this is a partition-boundary link, and
  /// deliveries ride the engine mailbox (see transmit). Omitted or equal
  /// to the transmitter's: an ordinary intra-partition wire.
  void connect(Node* destination, int destination_port,
               sim::Simulation* destination_sim = nullptr) {
    dst_ = destination;
    dst_port_ = destination_port;
    remote_sim_ = destination_sim == &sim_ ? nullptr : destination_sim;
  }

  bool connected() const { return dst_ != nullptr; }
  sim::BitsPerSec rate() const { return rate_; }
  sim::Duration propagation() const { return propagation_; }

  /// Time at which the line becomes idle (>= now when busy).
  sim::Time free_at() const { return free_at_; }
  bool busy() const { return free_at_ > sim_.now(); }

  /// Administrative state. Bringing the link down kills frames currently in
  /// flight (they never reach the far end) and every later transmit() until
  /// the link is brought back up.
  void set_admin_up(bool up) {
    if (admin_up_ == up) return;
    admin_up_ = up;
    if (!up) ++epoch_;  // invalidates the deliveries already scheduled
    PLANCK_TRACE_ARGS(sim_, "link", up ? "admin_up" : "admin_down",
                      obs::argf("\"dst_port\":%d", dst_port_));
  }
  bool admin_up() const { return admin_up_; }

  /// Puts `packet` on the wire now. Precondition: !busy() and connected().
  /// Returns the time the transmitter's line becomes free (now + serialize).
  /// Delivery at the far end happens serialize + propagation from now.
  ///
  /// Serialization time is tracked with a fractional-nanosecond carry so
  /// the link's *average* rate is exact: without it, rounding each packet
  /// up to whole nanoseconds would quantize away sub-0.1% rate differences
  /// (e.g. the clock-tolerance skews the testbed applies) and make
  /// nominally different links tick in perfect lockstep.
  ///
  /// Delivery rides the engine's typed DeliverPacket path: the frame is
  /// copied once into a pooled scheduler slot and handed to the receiver in
  /// place, with the link's epoch in the event's aux word so frames in
  /// flight across an admin-down are dropped.
  sim::Time transmit(const Packet& packet) {
    assert(!busy());
    assert(connected());
    const double exact_ns = static_cast<double>(packet.wire_size()) * 8.0 *
                                1e9 / static_cast<double>(rate_.count()) +
                            carry_ns_;
    auto ser = static_cast<sim::Duration>(exact_ns);
    if (ser < 1) ser = 1;
    carry_ns_ = exact_ns - static_cast<double>(ser);
    free_at_ = sim_.now() + ser;
    if (!admin_up_) {
      // Dead wire: the transmitter's line timing is unchanged but the frame
      // goes nowhere.
      ++down_drops_;
      PLANCK_TRACE_ARGS(
          sim_, "link", "down_drop",
          obs::argf("\"bytes\":%lld",
                    static_cast<long long>(packet.wire_bytes().count())));
      return free_at_;
    }
    if (remote_sim_ != nullptr) {
      // Partition-boundary wire: delivery crosses via the engine mailbox.
      // ser >= 1ns makes the delay strictly greater than the propagation
      // delay, hence past the engine's conservative lookahead horizon.
      // Custody of the frame transfers at transmit time — the remote
      // trampoline must not touch this Link's state (the receiver's
      // partition thread runs it), so the bytes count as delivered now
      // and the mid-flight epoch guard does not apply: a boundary link
      // admin-downed while frames are in flight still delivers them
      // (transmit-time drops above work as usual). The fault plane keeps
      // its cable-pull scenarios on intra-partition runs.
      sim_.post_packet(*remote_sim_, ser + propagation_, dst_,
                       static_cast<std::uint32_t>(dst_port_),
                       &Link::deliver_remote, packet);
      ++packets_sent_;
      bytes_sent_ += packet.wire_bytes();
      bytes_delivered_ += packet.wire_bytes();
      check_conservation();
      return free_at_;
    }
    sim_.schedule_packet(ser + propagation_, this, epoch_, &Link::deliver,
                         packet);
    ++packets_sent_;
    bytes_sent_ += packet.wire_bytes();
    bytes_in_flight_ += packet.wire_bytes();
    check_conservation();
    return free_at_;
  }

  /// Serialization time for a packet of this size on this link.
  sim::Duration serialization(const Packet& packet) const {
    return sim::serialization_delay(packet.wire_bytes(), rate_);
  }

  sim::Packets packets_sent() const { return packets_sent_; }
  sim::Bytes bytes_sent() const { return bytes_sent_; }
  sim::Bytes bytes_delivered() const { return bytes_delivered_; }
  /// Bytes currently between the two ends of the wire.
  sim::Bytes bytes_in_flight() const { return bytes_in_flight_; }
  /// Frames lost to the wire being administratively down (at transmit time
  /// or mid-flight).
  std::uint64_t down_drops() const { return down_drops_; }

  /// Per-link byte-conservation contract body (see class comment). Public
  /// so tests and the fuzz plane can probe it directly.
  void check_conservation() const {
    PLANCK_CONTRACT(
        bytes_sent_ == bytes_delivered_ + bytes_lost_ + bytes_in_flight_,
        "link bytes: delivered + lost + in-flight == sent");
    PLANCK_CONTRACT(bytes_in_flight_ >= sim::Bytes{0},
                    "link in-flight byte count is non-negative");
  }

 private:
  /// Boundary-link delivery trampoline, executed on the *receiver's*
  /// partition: hands the frame straight to the destination node. No Link
  /// state is touched (custody transferred at transmit; see transmit()).
  static void deliver_remote(void* target, std::uint32_t port,
                             const Packet& packet) {
    static_cast<Node*>(target)->handle_packet(packet, static_cast<int>(port));
  }

  static void deliver(void* self, std::uint32_t epoch, const Packet& packet) {
    auto* link = static_cast<Link*>(self);
    link->bytes_in_flight_ -= packet.wire_bytes();
    if (epoch != link->epoch_) {
      ++link->down_drops_;  // link went down while the frame was in flight
      link->bytes_lost_ += packet.wire_bytes();
      link->check_conservation();
      PLANCK_TRACE_ARGS(
          link->sim_, "link", "inflight_drop",
          obs::argf("\"bytes\":%lld",
                    static_cast<long long>(packet.wire_bytes().count())));
      return;
    }
    link->bytes_delivered_ += packet.wire_bytes();
    link->check_conservation();
    link->dst_->handle_packet(packet, link->dst_port_);
  }

  sim::Simulation& sim_;
  sim::BitsPerSec rate_;
  sim::Duration propagation_;
  Node* dst_ = nullptr;
  int dst_port_ = 0;
  sim::Simulation* remote_sim_ = nullptr;  // non-null: boundary link
  sim::Time free_at_ = 0;
  double carry_ns_ = 0.0;
  bool admin_up_ = true;
  std::uint32_t epoch_ = 0;
  sim::Packets packets_sent_{0};
  sim::Bytes bytes_sent_{0};
  sim::Bytes bytes_delivered_{0};
  sim::Bytes bytes_lost_{0};
  sim::Bytes bytes_in_flight_{0};
  std::uint64_t down_drops_ = 0;
};

}  // namespace planck::net
