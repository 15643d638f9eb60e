#include "pcap/pcap_writer.hpp"

#include <cstdio>
#include <cstring>

namespace planck::pcap {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

// pcap headers are host-endian by convention; we emit little-endian, the
// form every modern reader expects with the 0xa1b2c3d4 magic read back as
// 0xd4c3b2a1-swapped. Use explicit LE to be unambiguous.
void put_u16le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_mac(std::vector<std::uint8_t>& out, net::MacAddress mac) {
  for (int shift = 40; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>((mac >> shift) & 0xff));
  }
}

}  // namespace

void PcapWriter::ensure_header() {
  if (!buffer_.empty()) return;
  put_u32le(buffer_, 0xa1b2c3d4u);  // magic (microsecond timestamps)
  put_u16le(buffer_, 2);            // version major
  put_u16le(buffer_, 4);            // version minor
  put_u32le(buffer_, 0);            // thiszone
  put_u32le(buffer_, 0);            // sigfigs
  put_u32le(buffer_, snaplen_);     // snaplen
  put_u32le(buffer_, 1);            // LINKTYPE_ETHERNET
}

std::vector<std::uint8_t> PcapWriter::render_frame(
    const net::Packet& packet) {
  std::vector<std::uint8_t> frame;
  frame.reserve(static_cast<std::size_t>(packet.frame_size()));

  // Ethernet header (network byte order).
  put_mac(frame, packet.dst_mac);
  put_mac(frame, packet.src_mac);

  if (packet.proto == net::Protocol::kArp) {
    put_u16(frame, 0x0806);  // EtherType ARP
    put_u16(frame, 1);       // HTYPE Ethernet
    put_u16(frame, 0x0800);  // PTYPE IPv4
    frame.push_back(6);      // HLEN
    frame.push_back(4);      // PLEN
    put_u16(frame,
            packet.arp_op == net::ArpOp::kReply ? 2 : 1);  // operation
    put_mac(frame, packet.src_mac);                        // sender MAC
    put_u32(frame, packet.src_ip);                         // sender IP
    put_mac(frame, packet.dst_mac);                        // target MAC
    put_u32(frame, packet.dst_ip);                         // target IP
    while (frame.size() < 60) frame.push_back(0);          // pad to min
    return frame;
  }

  put_u16(frame, 0x0800);  // EtherType IPv4

  const bool tcp = packet.proto == net::Protocol::kTcp;
  const std::uint16_t l4_len =
      static_cast<std::uint16_t>((tcp ? 20 : 8) + packet.payload);
  const std::uint16_t ip_total = static_cast<std::uint16_t>(20 + l4_len);

  // IPv4 header (no options, checksum left zero).
  frame.push_back(0x45);  // version + IHL
  frame.push_back(0);     // DSCP/ECN
  put_u16(frame, ip_total);
  put_u16(frame, 0);  // identification
  put_u16(frame, 0x4000);  // flags: DF
  frame.push_back(64);     // TTL
  frame.push_back(tcp ? 6 : 17);  // protocol
  put_u16(frame, 0);              // header checksum (omitted)
  put_u32(frame, packet.src_ip);
  put_u32(frame, packet.dst_ip);

  if (tcp) {
    put_u16(frame, packet.src_port);
    put_u16(frame, packet.dst_port);
    put_u32(frame, static_cast<std::uint32_t>(packet.seq));
    put_u32(frame, static_cast<std::uint32_t>(packet.ack));
    std::uint8_t flags = 0;
    if (packet.has_flag(net::kSyn)) flags |= 0x02;
    if (packet.has_flag(net::kAck)) flags |= 0x10;
    if (packet.has_flag(net::kFin)) flags |= 0x01;
    if (packet.has_flag(net::kRst)) flags |= 0x04;
    frame.push_back(0x50);  // data offset 5 words
    frame.push_back(flags);
    put_u16(frame, 65535);  // window
    put_u16(frame, 0);      // checksum (omitted)
    put_u16(frame, 0);      // urgent pointer
  } else {
    put_u16(frame, packet.src_port);
    put_u16(frame, packet.dst_port);
    put_u16(frame, l4_len);
    put_u16(frame, 0);  // checksum (omitted)
  }

  // Zero-filled payload: the simulation carries sizes, not data.
  frame.insert(frame.end(), packet.payload, 0);
  while (frame.size() < 60) frame.push_back(0);  // Ethernet minimum
  return frame;
}

void PcapWriter::add(sim::Time t, const net::Packet& packet) {
  ensure_header();
  const std::vector<std::uint8_t> frame = render_frame(packet);
  const auto orig_len = static_cast<std::uint32_t>(frame.size());
  const std::uint32_t incl_len = orig_len < snaplen_ ? orig_len : snaplen_;

  const auto usec_total = static_cast<std::uint64_t>(t / 1000);
  put_u32le(buffer_, static_cast<std::uint32_t>(usec_total / 1'000'000));
  put_u32le(buffer_, static_cast<std::uint32_t>(usec_total % 1'000'000));
  put_u32le(buffer_, incl_len);
  put_u32le(buffer_, orig_len);
  buffer_.insert(buffer_.end(), frame.begin(), frame.begin() + incl_len);
  ++count_;
}

bool PcapWriter::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  // An empty capture still gets a valid global header.
  PcapWriter headered(snaplen_);
  const std::vector<std::uint8_t>* data = &buffer_;
  if (buffer_.empty()) {
    headered.ensure_header();
    data = &headered.buffer_;
  }
  const std::size_t written = std::fwrite(data->data(), 1, data->size(), f);
  const bool ok = written == data->size() && std::fclose(f) == 0;
  if (!ok && written != data->size()) std::fclose(f);
  return ok;
}

}  // namespace planck::pcap
