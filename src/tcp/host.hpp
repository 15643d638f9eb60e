#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/addresses.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/frame_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_connection.hpp"

namespace planck::tcp {

struct HostConfig {
  /// NIC/qdisc queue limit in bytes (Linux pfifo_fast of 1000 frames).
  sim::Bytes nic_queue_bytes = sim::bytes(1000 * net::kMtuFrame);
  /// Minimum time between ARP-cache updates for one entry (Linux
  /// arp_locktime). The paper sets the sysctl so reroutes apply instantly;
  /// 0 models that tuned host.
  sim::Duration arp_locktime = 0;
  /// Accept unicast ARP *requests* as cache updates (Linux MAC learning on
  /// request, the mechanism §6.2 exploits). ARP *replies* that were not
  /// solicited are ignored either way, as on Linux.
  bool learn_from_arp_request = true;

  /// Sender microbursts (Kapoor et al., "Bullet Trains", the paper's
  /// [23]): real 10 GbE senders emit trains of packets separated by
  /// kernel/NIC stalls. When `sender_stall_max > 0`, after each train of
  /// `stall_every_bytes` the NIC pauses for U(sender_stall_min,
  /// sender_stall_max). Off by default; the Figure 5-7 bench enables it
  /// to reproduce the paper's sender-gap distribution.
  sim::Bytes stall_every_bytes = sim::kibibytes(64);
  sim::Duration sender_stall_min = 0;
  sim::Duration sender_stall_max = 0;
  /// Seed for the host's local randomness (stall durations).
  std::uint64_t seed = 0x5eed;

  TcpConfig tcp;
};

/// An end host: one NIC, an ARP cache, a TCP stack and an optional CBR/UDP
/// source. The NIC models the qdisc: TCP senders write into it under
/// backpressure and it drains at line rate, which is what produces the
/// line-rate bursts the paper measures (Figures 7 and 10).
class Host : public net::Node {
 public:
  using PacketHook = std::function<void(const net::Packet&)>;
  using FlowCallback = std::function<void(const FlowStats&)>;

  Host(sim::Simulation& simulation, int host_id, const HostConfig& config);

  /// Attaches the outgoing half of the host's cable.
  void attach_link(net::Link* link) { link_ = link; }
  /// The outgoing half of the cable; nullptr while unwired.
  net::Link* link() const { return link_; }

  int id() const { return id_; }
  net::MacAddress mac() const { return net::host_mac(id_); }
  net::IpAddress ip() const { return net::host_ip(id_); }

  // --- ARP cache --------------------------------------------------------
  void set_arp(net::IpAddress ip, net::MacAddress mac);
  /// The cached MAC for `ip`; without an entry, a fabric host's base MAC
  /// (see resolve_fabric_hosts), else kMacNone.
  net::MacAddress lookup_arp(net::IpAddress ip) const;
  /// Resolves every other host id below `num_hosts` to its base MAC, as
  /// if each had an entry written now: the fabric's ARP answers are a
  /// closed form (§6.2), so the controller passes the count once instead
  /// of installing an entry per host. Spoofed ARP requests still update
  /// the cache. A host never told resolves nothing.
  void resolve_fabric_hosts(int num_hosts);

  // --- TCP --------------------------------------------------------------
  /// Starts a bulk transfer of `bytes` to `dst_ip`:`dst_port`. The source
  /// port is allocated automatically. Returns a stable pointer (owned by
  /// the host) for inspection.
  TcpSender* start_flow(net::IpAddress dst_ip, std::uint16_t dst_port,
                        std::int64_t bytes, FlowCallback on_complete = {});

  // --- UDP --------------------------------------------------------------
  /// Sends a single UDP datagram carrying a byte-offset sequence number
  /// (Planck's estimator works on any sequence-numbered traffic, §3.2.2).
  void send_udp(net::IpAddress dst_ip, std::uint16_t src_port,
                std::uint16_t dst_port, std::int64_t seq,
                std::int64_t payload);

  // --- NIC --------------------------------------------------------------
  /// Queues a packet for transmission; stamps MAC addresses (dst from the
  /// ARP cache at enqueue time, so reroutes apply to retransmissions too).
  /// Returns false and drops when the qdisc is full.
  bool send(net::Packet packet);

  /// Bytes of NIC-queue headroom available. A lone frame whose
  /// serialization has ended holds none, settled or not.
  sim::Bytes nic_headroom() const {
    return config_.nic_queue_bytes - nic_bytes_ +
           (nic_ended() ? nic_wire_bytes_ : sim::Bytes{0});
  }

  void handle_packet(const net::Packet& packet, int in_port) override;

  // --- instrumentation ----------------------------------------------------
  /// Called when a packet hits the wire (the sender-side tcpdump of §5.2).
  void set_tx_hook(PacketHook hook) { tx_hook_ = std::move(hook); }
  /// Called on every received packet before protocol processing.
  void set_rx_hook(PacketHook hook) { rx_hook_ = std::move(hook); }

  std::uint64_t nic_drops() const { return nic_drops_; }
  sim::Packets rx_packets() const { return rx_packets_; }
  std::uint64_t arp_updates() const { return arp_updates_; }

  const std::vector<std::unique_ptr<TcpSender>>& senders() const {
    return senders_;
  }
  const std::vector<std::unique_ptr<TcpReceiver>>& receivers() const {
    return receivers_;
  }

  sim::Simulation& simulation() { return sim_; }
  const HostConfig& config() const { return config_; }

  /// TcpSender registers here when the NIC refused a segment; the NIC
  /// notifies when space frees.
  void wait_for_nic(TcpSender* sender);

 private:
  void start_tx();
  /// Puts `pkt` on the idle wire: stamps sent_at and runs the tx hook.
  void transmit(net::Packet& pkt);
  /// A train of stall_every_bytes has gone out: the next frame waits out
  /// a sender stall.
  bool stall_due() const {
    return config_.sender_stall_max > 0 &&
           train_bytes_ >= config_.stall_every_bytes;
  }
  void schedule_end();
  void finish_tx();
  /// Releases the bytes of the frame on the wire, whose end has passed.
  void settle();
  /// True when a lone frame (no end event) has ended but is unsettled.
  bool nic_ended() const {
    return !nic_draining_ && nic_wire_bytes_ > sim::Bytes{0} &&
           nic_wire_end_ <= sim_.now();
  }
  void handle_arp(const net::Packet& packet);
  void handle_tcp(const net::Packet& packet);

  sim::Simulation& sim_;
  int id_;
  HostConfig config_;
  net::Link* link_ = nullptr;

  struct ArpEntry {
    net::MacAddress mac = net::kMacNone;
    sim::Time updated_at = -1;
  };
  /// The entry `ip` has without a cached one: a fabric host's base MAC,
  /// written when the fabric was resolved, else none.
  ArpEntry fabric_arp(net::IpAddress ip) const;

  /// Entries set or learnt from ARP requests; they override fabric_arp.
  std::map<net::IpAddress, ArpEntry> arp_cache_;
  int fabric_hosts_ = 0;
  sim::Time fabric_resolved_at_ = -1;

  sim::FrameQueue nic_queue_;  // frames waiting for the wire, in blocks
                               // from the partition's frame pool
  sim::Bytes nic_bytes_{0};    // the waiting frames plus nic_wire_bytes_
  /// The frame last put on the wire: when its serialization ends, and its
  /// bytes until they are released (0 after).
  sim::Time nic_wire_end_ = 0;
  sim::Bytes nic_wire_bytes_{0};
  /// An event is scheduled that starts the next waiting frame: the end of
  /// the frame on the wire, or of a sender stall.
  bool nic_draining_ = false;
  std::uint64_t nic_drops_ = 0;
  sim::Bytes train_bytes_{0};  // bytes sent since the last stall
  sim::Rng rng_{0x5eed};

  std::vector<std::unique_ptr<TcpSender>> senders_;
  std::vector<std::unique_ptr<TcpReceiver>> receivers_;
  std::map<net::FlowKey, TcpSender*> by_out_key_;
  std::map<net::FlowKey, TcpReceiver*> by_in_key_;
  std::uint16_t next_src_port_ = 10000;

  PacketHook tx_hook_;
  PacketHook rx_hook_;
  sim::Packets rx_packets_{0};
  std::uint64_t arp_updates_ = 0;
  std::vector<TcpSender*> nic_waiters_;
};

}  // namespace planck::tcp
