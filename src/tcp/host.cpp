#include "tcp/host.hpp"

#include <cassert>
#include <utility>

namespace planck::tcp {

Host::Host(sim::Simulation& simulation, int host_id, const HostConfig& config)
    : sim_(simulation),
      id_(host_id),
      config_(config),
      nic_queue_(simulation.frame_pool()),
      rng_(config.seed ^ (0x9e3779b97f4a7c15ULL *
                          static_cast<std::uint64_t>(host_id + 1))) {}

void Host::set_arp(net::IpAddress ip, net::MacAddress mac) {
  arp_cache_[ip] = ArpEntry{mac, sim_.now()};
}

net::MacAddress Host::lookup_arp(net::IpAddress ip) const {
  if (!arp_cache_.empty()) {
    const auto it = arp_cache_.find(ip);
    if (it != arp_cache_.end()) return it->second.mac;
  }
  return fabric_arp(ip).mac;
}

void Host::resolve_fabric_hosts(int num_hosts) {
  fabric_hosts_ = num_hosts;
  fabric_resolved_at_ = sim_.now();
}

Host::ArpEntry Host::fabric_arp(net::IpAddress ip) const {
  const int id = net::host_id_of_ip(ip);
  if (id < 0 || id >= fabric_hosts_ || id == id_) return {};
  return ArpEntry{net::host_mac(id, 0), fabric_resolved_at_};
}

TcpSender* Host::start_flow(net::IpAddress dst_ip, std::uint16_t dst_port,
                            std::int64_t bytes, FlowCallback on_complete) {
  net::FlowKey key;
  key.src_ip = ip();
  key.dst_ip = dst_ip;
  key.src_port = next_src_port_++;
  key.dst_port = dst_port;
  key.proto = net::Protocol::kTcp;

  auto sender = std::make_unique<TcpSender>(sim_, *this, key, bytes,
                                            config_.tcp,
                                            std::move(on_complete));
  TcpSender* raw = sender.get();
  by_out_key_[key] = raw;
  senders_.push_back(std::move(sender));
  raw->start();
  return raw;
}

void Host::send_udp(net::IpAddress dst_ip, std::uint16_t src_port,
                    std::uint16_t dst_port, std::int64_t seq,
                    std::int64_t payload) {
  net::Packet pkt;
  pkt.src_ip = ip();
  pkt.dst_ip = dst_ip;
  pkt.src_port = src_port;
  pkt.dst_port = dst_port;
  pkt.proto = net::Protocol::kUdp;
  pkt.seq = static_cast<std::uint64_t>(seq);
  pkt.payload = static_cast<std::uint32_t>(payload);
  send(pkt);
}

bool Host::send(net::Packet packet) {
  packet.src_mac = mac();
  if (packet.dst_mac == net::kMacNone) {
    // Per-packet ARP resolution, so a cache rewrite from the controller
    // redirects retransmissions and all subsequent segments (§6.2).
    packet.dst_mac = lookup_arp(packet.dst_ip);
    if (packet.dst_mac == net::kMacNone) {
      ++nic_drops_;
      return false;
    }
  }
  if (packet.first_sent_at == 0) packet.first_sent_at = sim_.now();
  if (nic_ended()) settle();
  const sim::Bytes frame = packet.frame_bytes();
  if (nic_bytes_ + frame > config_.nic_queue_bytes) {
    ++nic_drops_;
    return false;
  }
  nic_bytes_ += frame;
  // An idle wire with no drain pending has an empty queue: put the frame
  // straight on the wire unless it must wait out a sender stall.
  if (!nic_draining_ && nic_wire_bytes_ == sim::Bytes{0} &&
      link_ != nullptr && !stall_due()) {
    transmit(packet);
    if (!nic_waiters_.empty()) schedule_end();
    return true;
  }
  nic_queue_.push_back(packet);
  if (nic_draining_) return true;  // a scheduled event starts the next frame
  if (nic_wire_bytes_ > sim::Bytes{0}) {
    schedule_end();  // the frame now waits on the busy wire's end
  } else {
    start_tx();
  }
  return true;
}

void Host::wait_for_nic(TcpSender* sender) {
  nic_waiters_.push_back(sender);
  // The waiter wakes at an end of serialization: make sure one is due.
  if (!nic_draining_ && nic_wire_bytes_ > sim::Bytes{0}) schedule_end();
}

void Host::start_tx() {
  if (link_ == nullptr) {
    nic_queue_.clear();
    nic_bytes_ = sim::Bytes{0};
    return;
  }
  // Optional sender-microburst model (see HostConfig): stall between
  // packet trains the way real kernel/NIC pipelines do.
  if (stall_due()) {
    train_bytes_ = sim::Bytes{0};
    const auto stall = config_.sender_stall_min +
                       static_cast<sim::Duration>(rng_.below(
                           static_cast<std::uint64_t>(
                               config_.sender_stall_max -
                               config_.sender_stall_min + 1)));
    nic_draining_ = true;
    sim_.schedule_call(stall, this, 0, [](void* self, std::uint32_t) {
      auto* host = static_cast<Host*>(self);
      host->nic_draining_ = false;
      if (!host->nic_queue_.empty()) host->start_tx();
    });
    return;
  }
  transmit(nic_queue_.front());
  nic_queue_.pop_front();
  // A lone frame that no sender waits on settles at the next send.
  if (!nic_queue_.empty() || !nic_waiters_.empty()) schedule_end();
}

void Host::transmit(net::Packet& pkt) {
  pkt.sent_at = sim_.now();  // the "tcpdump at the sender" timestamp (§5.2)
  if (tx_hook_) tx_hook_(pkt);
  train_bytes_ += pkt.frame_bytes();
  nic_wire_end_ = link_->transmit(pkt);
  nic_wire_bytes_ = pkt.frame_bytes();
}

void Host::schedule_end() {
  nic_draining_ = true;
  sim_.schedule_call_at(nic_wire_end_, this, 0, [](void* self, std::uint32_t) {
    static_cast<Host*>(self)->finish_tx();
  });
}

void Host::finish_tx() {
  assert(nic_wire_bytes_ > sim::Bytes{0});
  settle();
  // Woken senders queue behind: nic_draining_ is still set.
  if (!nic_waiters_.empty() &&
      nic_headroom() >= config_.nic_queue_bytes / 2) {
    std::vector<TcpSender*> waiters;
    waiters.swap(nic_waiters_);
    for (TcpSender* s : waiters) s->on_nic_writable();
  }
  nic_draining_ = false;
  if (!nic_queue_.empty()) start_tx();
}

void Host::settle() {
  nic_bytes_ -= nic_wire_bytes_;
  nic_wire_bytes_ = sim::Bytes{0};
}

void Host::handle_packet(const net::Packet& packet, int /*in_port*/) {
  ++rx_packets_;
  if (rx_hook_) rx_hook_(packet);

  // Hosts only accept frames addressed to their (base) MAC or broadcast;
  // shadow-MAC traffic must be rewritten by the egress switch before it
  // arrives (§6.2).
  if (packet.dst_mac != mac() && packet.dst_mac != net::kMacBroadcast) {
    return;
  }

  switch (packet.proto) {
    case net::Protocol::kArp:
      handle_arp(packet);
      return;
    case net::Protocol::kTcp:
      handle_tcp(packet);
      return;
    case net::Protocol::kUdp:
      return;  // datagrams are counted by the rx hook only
  }
}

void Host::handle_arp(const net::Packet& packet) {
  // Linux semantics the paper leans on (§6.2): gratuitous/unsolicited
  // *replies* are ignored; a unicast *request* triggers MAC learning and
  // updates the cache, subject to arp_locktime.
  if (packet.arp_op != net::ArpOp::kRequest ||
      !config_.learn_from_arp_request) {
    return;
  }
  // A fabric host's entry starts from its resolved base MAC.
  ArpEntry& entry =
      arp_cache_.try_emplace(packet.src_ip, fabric_arp(packet.src_ip))
          .first->second;
  if (entry.updated_at >= 0 &&
      sim_.now() - entry.updated_at < config_.arp_locktime) {
    return;  // entry locked
  }
  if (entry.mac == packet.src_mac) return;
  entry.mac = packet.src_mac;
  entry.updated_at = sim_.now();
  ++arp_updates_;
}

void Host::handle_tcp(const net::Packet& packet) {
  const net::FlowKey key = packet.flow_key();

  if (const auto it = by_in_key_.find(key); it != by_in_key_.end()) {
    it->second->handle_segment(packet);
    return;
  }
  if (const auto it = by_out_key_.find(key.reversed());
      it != by_out_key_.end()) {
    it->second->handle_segment(packet);
    return;
  }
  if (packet.has_flag(net::kSyn) && !packet.has_flag(net::kAck)) {
    auto receiver = std::make_unique<TcpReceiver>(sim_, *this, key);
    TcpReceiver* raw = receiver.get();
    by_in_key_[key] = raw;
    receivers_.push_back(std::move(receiver));
    raw->handle_segment(packet);
  }
}

}  // namespace planck::tcp
