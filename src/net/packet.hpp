#pragma once

#include <cstdint>
#include <type_traits>

#include "net/addresses.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"

namespace planck::net {

/// Layer-4 protocol of a simulated packet.
enum class Protocol : std::uint8_t {
  kTcp,
  kUdp,
  kArp,
};

/// TCP header flag bits.
enum TcpFlag : std::uint8_t {
  kSyn = 1u << 0,
  kAck = 1u << 1,
  kFin = 1u << 2,
  kRst = 1u << 3,
  kPsh = 1u << 4,
};

/// ARP operation (carried in Packet::arp_op when proto == kArp).
enum class ArpOp : std::uint8_t {
  kNone = 0,
  kRequest = 1,
  kReply = 2,
};

/// Header byte accounting, used for wire-time and utilization math.
/// Ethernet header 14 + FCS 4 = 18; preamble 8 + min inter-packet gap 12 =
/// 20 on-wire overhead; IPv4 20; TCP 20.
inline constexpr std::int64_t kEthernetOverhead = 18;
inline constexpr std::int64_t kWireGap = 20;
inline constexpr std::int64_t kIpHeader = 20;
inline constexpr std::int64_t kTcpHeader = 20;
inline constexpr std::int64_t kMss = 1460;  // payload of a full-size segment
inline constexpr std::int64_t kMtuFrame =
    kMss + kTcpHeader + kIpHeader + kEthernetOverhead;  // 1518
inline constexpr std::int64_t kMtuWire = kMtuFrame + kWireGap;  // 1538

/// 5-tuple identifying a transport flow.
struct FlowKey {
  IpAddress src_ip = 0;
  IpAddress dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Protocol proto = Protocol::kTcp;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;

  /// Lexicographic order on the 5-tuple: the order in which every
  /// flow-keyed std::map is walked, and the tiebreak wherever flows are
  /// sorted by rate (same-seed replay depends on it).
  friend bool operator<(const FlowKey& a, const FlowKey& b) {
    if (a.src_ip != b.src_ip) return a.src_ip < b.src_ip;
    if (a.dst_ip != b.dst_ip) return a.dst_ip < b.dst_ip;
    if (a.src_port != b.src_port) return a.src_port < b.src_port;
    if (a.dst_port != b.dst_port) return a.dst_port < b.dst_port;
    return static_cast<std::uint8_t>(a.proto) <
           static_cast<std::uint8_t>(b.proto);
  }

  /// The reverse direction of this flow (for matching ACKs).
  FlowKey reversed() const {
    return FlowKey{dst_ip, src_ip, dst_port, src_port, proto};
  }
};

/// A simulated packet. Passed by value: small, trivially copyable, no
/// ownership. Mirrored copies are literal copies of this struct.
struct Packet {
  MacAddress src_mac = kMacNone;
  MacAddress dst_mac = kMacNone;
  /// For ARP, src_ip is the sender IP and src_mac the MAC advertised for
  /// it. A spoofed unicast request with a shadow MAC as src_mac performs
  /// the §6.2 reroute.
  IpAddress src_ip = 0;
  IpAddress dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Protocol proto = Protocol::kTcp;
  std::uint8_t flags = 0;
  ArpOp arp_op = ArpOp::kNone;

  /// Oracle metadata for tests/validation only: the input/output port the
  /// packet used at the switch that mirrored it. Real mirrored packets
  /// carry no metadata; the collector must *infer* these (§3.2.1) and tests
  /// compare inference against this ground truth. -1 when unset.
  std::int16_t oracle_in_port = -1;
  std::int16_t oracle_out_port = -1;

  /// Payload bytes in this segment.
  std::uint32_t payload = 0;

  /// TCP sequence number: offset of the first payload byte (paper §3.2.2
  /// uses these as byte counters for rate estimation).
  std::uint64_t seq = 0;
  /// Cumulative ACK: next byte expected by the receiver.
  std::uint64_t ack = 0;
  /// SACK: the first byte of the receiver's lowest out-of-order block, or
  /// zero when it holds none. That block always starts above the
  /// cumulative ACK, so a present block is never zero. Its start is all
  /// the sender needs: the hole to repair is [ack, sack_start).
  std::uint64_t sack_start = 0;

  /// Timestamp of this transmission onto the first wire (set by the sending
  /// NIC; the simulated equivalent of tcpdump at the sender).
  sim::Time sent_at = 0;
  /// Timestamp of the *first* transmission of this payload range;
  /// preserved across retransmissions so receiver-side latency includes
  /// retransmission delay (Figure 3's 99.9th percentile effect).
  sim::Time first_sent_at = 0;

  FlowKey flow_key() const {
    return FlowKey{src_ip, dst_ip, src_port, dst_port, proto};
  }

  bool has_flag(TcpFlag f) const { return (flags & f) != 0; }

  /// Frame size as buffered/forwarded by a switch (no preamble/IPG).
  std::int64_t frame_size() const {
    if (proto == Protocol::kArp) return 64;  // min-size frame
    return payload + kTcpHeader + kIpHeader + kEthernetOverhead;
  }

  /// Bytes of link time the packet occupies, including preamble + IPG.
  std::int64_t wire_size() const { return frame_size() + kWireGap; }

  /// Typed views of the two sizes, for code on the units system
  /// (src/sim/units.hpp); the raw accessors above remain the only place
  /// the header arithmetic itself lives.
  sim::Bytes frame_bytes() const { return sim::Bytes{frame_size()}; }
  sim::Bytes wire_bytes() const { return sim::Bytes{wire_size()}; }
};

// Every queued frame is one Packet: an oversubscribed monitor port keeps
// its buffer full, about 3,900 frames per switch, so each byte here costs
// megabytes of peak memory. The member order leaves one byte of padding.
static_assert(sizeof(Packet) == 80);
static_assert(std::is_trivially_copyable_v<Packet>);

}  // namespace planck::net
