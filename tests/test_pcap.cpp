// Tests for the pcap writer (vantage-point monitoring, §6.1): exact file
// format bytes, frame rendering for TCP/UDP/ARP, snaplen behaviour, and
// file output.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "pcap/pcap_writer.hpp"

namespace planck::pcap {
namespace {

std::uint32_t read_u32le(const std::vector<std::uint8_t>& b,
                         std::size_t off) {
  return static_cast<std::uint32_t>(b[off]) |
         (static_cast<std::uint32_t>(b[off + 1]) << 8) |
         (static_cast<std::uint32_t>(b[off + 2]) << 16) |
         (static_cast<std::uint32_t>(b[off + 3]) << 24);
}

std::uint16_t read_u16be(const std::vector<std::uint8_t>& b,
                         std::size_t off) {
  return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}

net::MacAddress read_mac(const std::vector<std::uint8_t>& b,
                         std::size_t off) {
  net::MacAddress mac = 0;
  for (std::size_t i = 0; i < 6; ++i) mac = (mac << 8) | b[off + i];
  return mac;
}

net::Packet tcp_packet() {
  net::Packet p;
  p.src_mac = net::host_mac(0);
  p.dst_mac = net::host_mac(1);
  p.src_ip = net::host_ip(0);
  p.dst_ip = net::host_ip(1);
  p.src_port = 10000;
  p.dst_port = 5001;
  p.proto = net::Protocol::kTcp;
  p.flags = net::kAck;
  p.seq = 0x01020304;
  p.payload = 100;
  return p;
}

TEST(Pcap, GlobalHeader) {
  PcapWriter w;
  w.add(0, tcp_packet());
  const auto& b = w.bytes();
  ASSERT_GE(b.size(), 24u);
  EXPECT_EQ(read_u32le(b, 0), 0xa1b2c3d4u);  // magic
  EXPECT_EQ(b[4], 2u);                        // version major (LE)
  EXPECT_EQ(b[6], 4u);                        // version minor
  EXPECT_EQ(read_u32le(b, 20), 1u);           // LINKTYPE_ETHERNET
}

TEST(Pcap, RecordHeaderTimestampsMicroseconds) {
  PcapWriter w;
  w.add(sim::seconds(3) + sim::microseconds(250), tcp_packet());
  const auto& b = w.bytes();
  EXPECT_EQ(read_u32le(b, 24), 3u);    // ts_sec
  EXPECT_EQ(read_u32le(b, 28), 250u);  // ts_usec
}

TEST(Pcap, RecordLengths) {
  PcapWriter w;
  net::Packet p = tcp_packet();
  w.add(0, p);
  const auto& b = w.bytes();
  const std::uint32_t incl = read_u32le(b, 32);
  const std::uint32_t orig = read_u32le(b, 36);
  EXPECT_EQ(incl, orig);
  // Ethernet 14 + IP 20 + TCP 20 + 100 payload = 154.
  EXPECT_EQ(orig, 154u);
  EXPECT_EQ(b.size(), 24u + 16u + 154u);
}

TEST(Pcap, SnaplenTruncates) {
  PcapWriter w(64);
  w.add(0, tcp_packet());
  const auto& b = w.bytes();
  EXPECT_EQ(read_u32le(b, 32), 64u);   // incl_len capped
  EXPECT_EQ(read_u32le(b, 36), 154u);  // orig_len intact
  EXPECT_EQ(b.size(), 24u + 16u + 64u);
}

TEST(Pcap, EthernetHeaderFields) {
  const auto frame = PcapWriter::render_frame(tcp_packet());
  // dst MAC 02:00:00:00:00:01.
  EXPECT_EQ(frame[0], 0x02);
  EXPECT_EQ(frame[5], 0x01);
  // src MAC 02:00:00:00:00:00.
  EXPECT_EQ(frame[6], 0x02);
  EXPECT_EQ(frame[11], 0x00);
  // EtherType IPv4.
  EXPECT_EQ(read_u16be(frame, 12), 0x0800);
}

TEST(Pcap, Ipv4AndTcpFields) {
  const auto frame = PcapWriter::render_frame(tcp_packet());
  EXPECT_EQ(frame[14], 0x45);                   // version+IHL
  EXPECT_EQ(read_u16be(frame, 16), 140u);       // total length 20+20+100
  EXPECT_EQ(frame[23], 6u);                     // protocol TCP
  EXPECT_EQ(read_u16be(frame, 34), 10000u);     // src port
  EXPECT_EQ(read_u16be(frame, 36), 5001u);      // dst port
  // Sequence number (big endian at offset 38).
  EXPECT_EQ(frame[38], 0x01);
  EXPECT_EQ(frame[41], 0x04);
  EXPECT_EQ(frame[47], 0x10);  // flags: ACK
}

TEST(Pcap, TcpFlagBits) {
  net::Packet p = tcp_packet();
  p.flags = net::kSyn | net::kAck | net::kFin;
  const auto frame = PcapWriter::render_frame(p);
  EXPECT_EQ(frame[47], 0x02 | 0x10 | 0x01);
}

TEST(Pcap, UdpFrame) {
  net::Packet p = tcp_packet();
  p.proto = net::Protocol::kUdp;
  p.payload = 50;
  const auto frame = PcapWriter::render_frame(p);
  EXPECT_EQ(frame[23], 17u);               // protocol UDP
  EXPECT_EQ(read_u16be(frame, 38), 58u);   // UDP length 8+50
  EXPECT_EQ(frame.size(), 14u + 20u + 8u + 50u);
}

TEST(Pcap, ArpFrame) {
  net::Packet p;
  p.proto = net::Protocol::kArp;
  p.arp_op = net::ArpOp::kRequest;
  p.src_ip = net::host_ip(4);
  p.dst_ip = net::host_ip(0);
  p.dst_mac = net::host_mac(0);
  p.src_mac = net::host_mac(4, 2);
  const auto frame = PcapWriter::render_frame(p);
  EXPECT_EQ(read_u16be(frame, 12), 0x0806);  // EtherType ARP
  EXPECT_EQ(read_u16be(frame, 20), 1u);      // opcode request
  // The advertised (shadow) MAC is both the Ethernet source and the ARP
  // sender hardware address.
  EXPECT_EQ(read_mac(frame, 6), net::host_mac(4, 2));
  EXPECT_EQ(read_mac(frame, 22), net::host_mac(4, 2));
  EXPECT_GE(frame.size(), 60u);              // min Ethernet frame
}

TEST(Pcap, MinimumFramePadding) {
  net::Packet p = tcp_packet();
  p.payload = 0;  // 54-byte frame -> padded to 60
  const auto frame = PcapWriter::render_frame(p);
  EXPECT_EQ(frame.size(), 60u);
}

TEST(Pcap, CountsRecords) {
  PcapWriter w;
  EXPECT_EQ(w.count(), 0u);
  w.add(0, tcp_packet());
  w.add(1000, tcp_packet());
  EXPECT_EQ(w.count(), 2u);
}

TEST(Pcap, WritesFile) {
  PcapWriter w;
  w.add(0, tcp_packet());
  const std::string path = ::testing::TempDir() + "/planck_test.pcap";
  ASSERT_TRUE(w.write_file(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<char> data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(data.size(), w.bytes().size());
  std::remove(path.c_str());
}

TEST(Pcap, EmptyCaptureStillValidFile) {
  PcapWriter w;
  const std::string path = ::testing::TempDir() + "/planck_empty.pcap";
  ASSERT_TRUE(w.write_file(path));
  std::ifstream in(path, std::ios::binary);
  std::vector<char> data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(data.size(), 24u);  // just the global header
  std::remove(path.c_str());
}

}  // namespace
}  // namespace planck::pcap
