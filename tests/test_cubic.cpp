// Tests for the congestion-control specifics added for fidelity to the
// paper's Linux 3.5 testbed: CUBIC growth (including the TCP-friendly
// region), HyStart delay-based slow-start exit, window caps, and the
// model-realism knobs (link clock tolerance, mirror arbitration jitter,
// sender microbursts).

#include <gtest/gtest.h>

#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "tcp/host.hpp"
#include "workload/testbed.hpp"

namespace planck::tcp {
namespace {

workload::TestbedConfig no_planck() {
  workload::TestbedConfig cfg;
  cfg.enable_planck = false;
  return cfg;
}

struct Star {
  explicit Star(int n, workload::TestbedConfig cfg = no_planck())
      : graph(net::make_star(
            n,
            net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(40)})),
        bed(sim, graph, cfg) {}
  sim::Simulation sim;
  net::TopologyGraph graph;
  workload::Testbed bed;
};

TEST(Cubic, HystartExitsSlowStartBeforeBufferOverflow) {
  // A single flow through an uncongested switch: HyStart must cap the
  // window near the delay-bandwidth product instead of blasting a full
  // 6 MB window into the 4 MB shared buffer. Zero loss is the proof.
  Star star(2);
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 50 * 1024 * 1024,
                               [&](const FlowStats& s) { result = s; });
  star.sim.run_until(sim::seconds(5));
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(result.retransmits, 0u);
  EXPECT_GT(result.throughput_bps(), 9e9);
  // Window stayed civilized: well below the 6 MB cap.
  auto* snd = star.bed.host(0)->senders()[0].get();
  EXPECT_LT(snd->cwnd_bytes(), 3 * 1024 * 1024);
}

TEST(Cubic, HystartDisabledOvershootsAndLoses) {
  // Ablation: with HyStart off, slow start overshoots the switch buffer
  // and the flow takes losses — the pathology HyStart exists to avoid.
  workload::TestbedConfig cfg = no_planck();
  cfg.host_config.tcp.hystart_rtt_factor = 0;
  cfg.switch_config.buffer.total_bytes = sim::mebibytes(2);
  Star star(3, cfg);
  FlowStats s1;
  FlowStats s2;
  star.bed.host(0)->start_flow(net::host_ip(2), 5001, 30 * 1024 * 1024,
                               [&](const FlowStats& s) { s1 = s; });
  star.sim.schedule_at(sim::milliseconds(3), [&] {
    star.bed.host(1)->start_flow(net::host_ip(2), 5001, 30 * 1024 * 1024,
                                 [&](const FlowStats& s) { s2 = s; });
  });
  star.sim.run_until(sim::seconds(10));
  ASSERT_TRUE(s1.complete && s2.complete);
  EXPECT_GT(s1.retransmits + s2.retransmits, 0u);
}

TEST(Cubic, RecoversSharePromptlyAfterJoiningBusyLink) {
  // The TCP-friendly region at datacenter RTTs: a late flow must claw back
  // a meaningful share within a few hundred ms, not the many seconds pure
  // cubic growth from a small w_max would take.
  Star star(3);
  star.bed.host(0)->start_flow(net::host_ip(2), 5001,
                               1'000'000'000'000LL);
  TcpSender* late = nullptr;
  star.sim.schedule_at(sim::milliseconds(10), [&] {
    late = star.bed.host(1)->start_flow(net::host_ip(2), 5001,
                                        1'000'000'000'000LL);
  });
  star.sim.run_until(sim::milliseconds(400));
  ASSERT_NE(late, nullptr);
  const std::int64_t una_400 = late->snd_una();
  star.sim.run_until(sim::milliseconds(900));
  const double rate =
      static_cast<double>(late->snd_una() - una_400) * 8.0 / 0.5;
  EXPECT_GT(rate, 1.0e9);  // > ~20% of its fair share and climbing
}

TEST(Realism, LinkClockSkewApplied) {
  sim::Simulation simulation;
  const auto graph = net::make_star(
      2, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(1)});
  workload::TestbedConfig cfg = no_planck();
  cfg.link_rate_ppm = 100.0;
  workload::Testbed bed(simulation, graph, cfg);
  // Send a long back-to-back train on each host's uplink and compare
  // effective rates: they must differ (different skews) but stay within
  // the tolerance band.
  FlowStats r0;
  bed.host(0)->start_flow(net::host_ip(1), 5001, 20 * 1024 * 1024,
                          [&](const FlowStats& s) { r0 = s; });
  simulation.run_until(sim::seconds(2));
  ASSERT_TRUE(r0.complete);
  EXPECT_NEAR(r0.throughput_bps(), 9.3e9, 0.2e9);
}

TEST(Realism, LinkSkewZeroWhenDisabled) {
  sim::Simulation simulation;
  const auto graph = net::make_star(
      2, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(1)});
  workload::TestbedConfig cfg = no_planck();
  cfg.link_rate_ppm = 0.0;
  workload::Testbed bed(simulation, graph, cfg);
  FlowStats r0;
  bed.host(0)->start_flow(net::host_ip(1), 5001, 1024 * 1024,
                          [&](const FlowStats& s) { r0 = s; });
  simulation.run_until(sim::seconds(1));
  EXPECT_TRUE(r0.complete);
}

TEST(Realism, FractionalCarryKeepsExactAverageRate) {
  // 1538-byte frames at 10 Gbps are 1230.4 ns each; over 1000 packets the
  // line must be busy 1,230,400 ns, not 1,231,000.
  sim::Simulation simulation;
  net::Link link(simulation, sim::gigabits_per_sec(10), 0);
  struct Sink : net::Node {
    void handle_packet(const net::Packet&, int) override {}
  } sink;
  link.connect(&sink, 0);
  net::Packet p;
  p.payload = 1460;
  sim::Time t = 0;
  for (int i = 0; i < 1000; ++i) {
    simulation.run_until(t);
    t = link.transmit(p);
  }
  EXPECT_EQ(t, 1'230'400);
}

TEST(Realism, SenderMicroburstsCreateGaps) {
  workload::TestbedConfig cfg = no_planck();
  cfg.host_config.stall_every_bytes = sim::kibibytes(64);
  cfg.host_config.sender_stall_min = sim::microseconds(20);
  cfg.host_config.sender_stall_max = sim::microseconds(20);
  Star star(2, cfg);
  std::vector<sim::Time> stamps;
  star.bed.host(0)->set_tx_hook([&](const net::Packet& p) {
    if (p.payload > 0) stamps.push_back(star.sim.now());
  });
  FlowStats result;
  star.bed.host(0)->start_flow(net::host_ip(1), 5001, 4 * 1024 * 1024,
                               [&](const FlowStats& s) { result = s; });
  star.sim.run_until(sim::seconds(2));
  ASSERT_TRUE(result.complete);
  int big_gaps = 0;
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    if (stamps[i] - stamps[i - 1] >= sim::microseconds(19)) ++big_gaps;
  }
  // ~4 MiB / 64 KiB = ~64 stalls expected (minus slow-start pauses noise).
  EXPECT_GE(big_gaps, 40);
}

TEST(Realism, MirrorJitterPreventsSingleFlowMonopoly) {
  // Two saturated flows mirrored into one monitor port: with arbitration
  // jitter, samples must interleave rather than one flow owning the
  // sampled stream.
  Star star(4, workload::TestbedConfig{});  // Planck (mirroring) enabled
  star.bed.host(0)->start_flow(net::host_ip(2), 5001, 1'000'000'000'000LL);
  star.bed.host(1)->start_flow(net::host_ip(3), 5001, 1'000'000'000'000LL);
  std::uint64_t from0 = 0;
  std::uint64_t from1 = 0;
  star.bed.collector_by_node(star.graph.switch_node(0))
      ->set_sample_hook([&](const core::Sample& s) {
        if (s.packet.payload == 0 || star.sim.now() < sim::milliseconds(20))
          return;
        if (s.packet.src_ip == net::host_ip(0)) ++from0;
        if (s.packet.src_ip == net::host_ip(1)) ++from1;
      });
  star.sim.run_until(sim::milliseconds(60));
  ASSERT_GT(from0 + from1, 10000u);
  const double share =
      static_cast<double>(from0) / static_cast<double>(from0 + from1);
  EXPECT_GT(share, 0.35);
  EXPECT_LT(share, 0.65);
}

}  // namespace
}  // namespace planck::tcp
