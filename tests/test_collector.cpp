// Tests for the Planck collector: flow-table maintenance, in/out-port
// inference from the controller-shared routing view (§3.2.1), link
// utilization aggregation, congestion events with flow annotations (§3.3),
// queries, and the raw-sample ring.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/collector.hpp"
#include "core/flow_table.hpp"
#include "core/opensample.hpp"
#include "sim/simulation.hpp"

namespace planck::core {
namespace {

using net::FlowKey;
using net::Packet;

Packet make_data(int src, int dst, std::uint64_t seq, int tree = 0,
                 std::uint32_t payload = 1460) {
  Packet p;
  p.src_mac = net::host_mac(src);
  p.dst_mac = net::host_mac(dst, tree);
  p.src_ip = net::host_ip(src);
  p.dst_ip = net::host_ip(dst);
  p.src_port = 10000;
  p.dst_port = 5001;
  p.proto = net::Protocol::kTcp;
  p.seq = seq;
  p.payload = payload;
  return p;
}

struct Fixture {
  explicit Fixture(CollectorConfig cfg = {})
      : collector(sim, "c0", 99, cfg) {
    net::SwitchRouteView view;
    view.out_port_by_dst[net::host_mac(1)] = 1;
    view.out_port_by_dst[net::host_mac(1, 2)] = 3;
    view.in_port_by_pair[net::MacPair{net::host_mac(0), net::host_mac(1)}] =
        0;
    view.in_port_by_pair[net::MacPair{net::host_mac(0),
                                      net::host_mac(1, 2)}] = 0;
    collector.update_route_view(view);
    collector.set_link_capacity(1, 10'000'000'000);
    collector.set_link_capacity(3, 10'000'000'000);
  }

  /// Feeds a CBR sample stream for flow 0->1.
  void feed(double rate_bps, sim::Duration duration, int tree = 0) {
    const double interval = 1460 * 8.0 / rate_bps * 1e9;
    const sim::Time start = sim.now();
    for (double t = 0; t < static_cast<double>(duration); t += interval) {
      sim.schedule_at(start + static_cast<sim::Time>(t), [this, tree] {
        collector.handle_packet(make_data(0, 1, seqs_[tree], tree), 0);
        seqs_[tree] += 1460;
      });
    }
    sim.run_until(start + duration);
  }

  sim::Simulation sim;
  Collector collector;
  std::uint64_t seqs_[4] = {};
};

TEST(Collector, TracksFlowsAndSamples) {
  Fixture f;
  f.feed(5e9, sim::milliseconds(2));
  EXPECT_GT(f.collector.samples_received(), 100u);
  EXPECT_EQ(f.collector.flow_table().size(), 1u);
  const FlowRecord* rec =
      f.collector.flow_table().find(make_data(0, 1, 0).flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->samples, 100u);
}

TEST(Collector, InfersPortsFromRouteView) {
  Fixture f;
  f.feed(5e9, sim::milliseconds(1));
  const FlowRecord* rec =
      f.collector.flow_table().find(make_data(0, 1, 0).flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->in_port, 0);
  EXPECT_EQ(rec->out_port, 1);
  EXPECT_EQ(f.collector.inference_misses(), 0u);
}

TEST(Collector, InferenceMatchesOracleMetadata) {
  Fixture f;
  // The mirrored replica carries oracle ports; inference must agree.
  Packet p = make_data(0, 1, 0);
  p.oracle_in_port = 0;
  p.oracle_out_port = 1;
  f.collector.handle_packet(p, 0);
  const FlowRecord* rec = f.collector.flow_table().find(p.flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->in_port, p.oracle_in_port);
  EXPECT_EQ(rec->out_port, p.oracle_out_port);
}

TEST(Collector, OracleRunsOncePerFlowAndOnMacChange) {
  Fixture f;
  int calls = 0;
  f.collector.set_port_oracle(
      [&calls](net::MacAddress, net::MacAddress dst) {
        ++calls;
        return dst == net::host_mac(1, 2) ? net::SwitchPorts{0, 3}
                                          : net::SwitchPorts{0, 1};
      });
  f.feed(6e9, sim::milliseconds(1), /*tree=*/0);
  EXPECT_GT(f.collector.samples_received(), 100u);
  EXPECT_EQ(calls, 1);
  // The flow's dst MAC moves to shadow tree 2: inferred once more.
  f.seqs_[2] = f.seqs_[0];
  f.feed(6e9, sim::milliseconds(1), /*tree=*/2);
  EXPECT_EQ(calls, 2);
  const FlowRecord* rec =
      f.collector.flow_table().find(make_data(0, 1, 0).flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->out_port, 3);
  EXPECT_EQ(f.collector.inference_misses(), 0u);
}

TEST(Collector, CountsInferenceMissWithoutRouteInfo) {
  Fixture f;
  Packet p = make_data(5, 9, 0);  // no view entry for this pair
  f.collector.handle_packet(p, 0);
  EXPECT_EQ(f.collector.inference_misses(), 1u);
  const FlowRecord* rec = f.collector.flow_table().find(p.flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->out_port, -1);
}

TEST(Collector, LinkUtilizationTracksFlowRate) {
  Fixture f;
  f.feed(6e9, sim::milliseconds(3));
  EXPECT_NEAR(f.collector.link_utilization_bps(1), 6e9, 6e8);
  EXPECT_EQ(f.collector.link_utilization_bps(3), 0.0);
}

TEST(Collector, UtilizationGoesStaleAfterFlowStops) {
  Fixture f;
  f.feed(6e9, sim::milliseconds(3));
  EXPECT_GT(f.collector.link_utilization_bps(1), 1e9);
  // Advance past the staleness window with no traffic; sweeps run on.
  f.sim.run_until(f.sim.now() + sim::milliseconds(20));
  EXPECT_EQ(f.collector.link_utilization_bps(1), 0.0);
}

TEST(Collector, IdleFlowsEvicted) {
  CollectorConfig cfg;
  cfg.flow_idle_timeout = sim::milliseconds(10);
  Fixture f(cfg);
  f.feed(5e9, sim::milliseconds(1));
  EXPECT_EQ(f.collector.flow_table().size(), 1u);
  f.sim.run_until(f.sim.now() + sim::milliseconds(50));
  EXPECT_EQ(f.collector.flow_table().size(), 0u);
}

TEST(Collector, EvictionReleasesEveryContribution) {
  // Regression for the contributing_bps unwind: every record returned by
  // FlowTable::evict_idle must be subtracted from its port aggregate, and
  // once the last contributor leaves, the aggregate must read exactly 0.0
  // — not FP dust from the add/subtract round trips.
  CollectorConfig cfg;
  cfg.flow_idle_timeout = sim::milliseconds(10);
  Fixture f(cfg);
  f.feed(6e9, sim::milliseconds(2));
  EXPECT_GT(f.collector.link_utilization_bps(1), 1e9);
  EXPECT_EQ(f.collector.evictions(), 0u);
  f.sim.run_until(f.sim.now() + sim::milliseconds(50));
  EXPECT_EQ(f.collector.flow_table().size(), 0u);
  EXPECT_GT(f.collector.evictions(), 0u);
  EXPECT_EQ(f.collector.link_utilization_bps(1), 0.0);
}

TEST(Collector, TreeChangeLeavesNoResidualUtilization) {
  Fixture f;
  f.feed(6e9, sim::milliseconds(2), /*tree=*/0);
  EXPECT_GT(f.collector.link_utilization_bps(1), 4e9);
  // The dst MAC moves to shadow tree 2 (out port 3): the old port's
  // aggregate must return to exactly zero the moment the flow migrates,
  // without waiting for the staleness sweep.
  f.seqs_[2] = f.seqs_[0];
  f.feed(6e9, sim::milliseconds(2), /*tree=*/2);
  EXPECT_EQ(f.collector.link_utilization_bps(1), 0.0);
  EXPECT_GT(f.collector.link_utilization_bps(3), 4e9);
}

TEST(Collector, UtilizationMovesWithReroute) {
  Fixture f;
  f.feed(6e9, sim::milliseconds(2), /*tree=*/0);
  EXPECT_GT(f.collector.link_utilization_bps(1), 4e9);
  // The flow switches to shadow tree 2 (out port 3): contributions move.
  f.seqs_[2] = f.seqs_[0];  // sequence continues
  f.feed(6e9, sim::milliseconds(2), /*tree=*/2);
  EXPECT_GT(f.collector.link_utilization_bps(3), 4e9);
  f.sim.run_until(f.sim.now() + sim::milliseconds(20));
  EXPECT_EQ(f.collector.link_utilization_bps(1), 0.0);
}

TEST(Collector, CongestionEventFiresAboveThreshold) {
  Fixture f;
  std::vector<CongestionEvent> events;
  f.collector.subscribe_congestion(
      [&](const CongestionEvent& e) { events.push_back(e); });
  f.feed(9.4e9, sim::milliseconds(3));
  ASSERT_FALSE(events.empty());
  const CongestionEvent& e = events.front();
  EXPECT_EQ(e.switch_node, 99);
  EXPECT_EQ(e.out_port, 1);
  EXPECT_GT(e.utilization_bps, 0.9 * 10e9);
  EXPECT_EQ(e.capacity_bps, 10'000'000'000);
  ASSERT_EQ(e.flows.size(), 1u);
  EXPECT_NEAR(e.flows[0].rate_bps, 9.4e9, 5e8);
  EXPECT_EQ(e.flows[0].src_mac, net::host_mac(0));
}

TEST(Collector, NoEventBelowThreshold) {
  Fixture f;
  int events = 0;
  f.collector.subscribe_congestion(
      [&](const CongestionEvent&) { ++events; });
  f.feed(5e9, sim::milliseconds(3));
  EXPECT_EQ(events, 0);
}

TEST(Collector, EventsDebounced) {
  CollectorConfig cfg;
  cfg.event_debounce = sim::milliseconds(1);
  Fixture f(cfg);
  int events = 0;
  f.collector.subscribe_congestion(
      [&](const CongestionEvent&) { ++events; });
  f.feed(9.4e9, sim::milliseconds(10));
  // At most ~one per debounce interval.
  EXPECT_LE(events, 12);
  EXPECT_GE(events, 5);
}

TEST(Collector, EventThresholdConfigurable) {
  CollectorConfig cfg;
  cfg.congestion_threshold = 0.5;
  Fixture f(cfg);
  int events = 0;
  f.collector.subscribe_congestion(
      [&](const CongestionEvent&) { ++events; });
  f.feed(6e9, sim::milliseconds(3));
  EXPECT_GT(events, 0);
}

TEST(Collector, PortWithoutCapacityTracksUtilizationButFiresNoEvent) {
  // Port 2 is routed but has no declared capacity: it aggregates
  // utilization like any port and fires nothing, neither from the
  // per-sample path nor from the sweep-only pass that port 1's events
  // push the collector into.
  CollectorConfig cfg;
  cfg.event_debounce = sim::microseconds(50);
  cfg.backpressure.queue_capacity = 64;
  cfg.backpressure.sweep_watermark = 2;
  cfg.backpressure.drain_interval = sim::milliseconds(2);
  Fixture f(cfg);
  net::SwitchRouteView view;
  view.out_port_by_dst[net::host_mac(1)] = 1;
  view.out_port_by_dst[net::host_mac(2)] = 2;
  f.collector.update_route_view(view);
  std::vector<int> event_ports;
  f.collector.subscribe_congestion(
      [&](const CongestionEvent& e) { event_ports.push_back(e.out_port); });

  // Two ~9.4 Gb/s flows: 0->1 on port 1 and 0->2 on port 2.
  std::uint64_t seq = 0;
  for (sim::Time t = 0; t < sim::milliseconds(6); t += 1243) {
    f.sim.schedule_at(t, [&f, seq] {
      f.collector.handle_packet(make_data(0, 1, seq), 0);
      f.collector.handle_packet(make_data(0, 2, seq), 0);
    });
    seq += 1460;
  }
  f.sim.run_until(sim::milliseconds(6));
  EXPECT_GT(f.collector.link_utilization_bps(2), 8e9);
  EXPECT_EQ(f.collector.flows_on_link(2).size(), 1u);
  EXPECT_GT(f.collector.events_deferred_to_sweep(), 0u);
  f.sim.run_until(sim::milliseconds(30));  // drain the event queue
  ASSERT_FALSE(event_ports.empty());
  for (int port : event_ports) EXPECT_EQ(port, 1);

  // Ports never seen read as idle: negative, below the highest port
  // seen, one past it and far past it.
  for (int port : {-1, 0, 4, 9}) {
    EXPECT_EQ(f.collector.link_utilization_bps(port), 0.0) << port;
    EXPECT_TRUE(f.collector.flows_on_link(port).empty()) << port;
  }
}

TEST(Collector, FlowsOnLinkSortedByRate) {
  Fixture f;
  // Two flows on port 1: 0->1 fast, 2->1 slow.
  net::SwitchRouteView view;
  view.out_port_by_dst[net::host_mac(1)] = 1;
  view.in_port_by_pair[net::MacPair{net::host_mac(0), net::host_mac(1)}] = 0;
  view.in_port_by_pair[net::MacPair{net::host_mac(2), net::host_mac(1)}] = 2;
  f.collector.update_route_view(view);

  std::uint64_t seq_a = 0;
  std::uint64_t seq_b = 0;
  for (int i = 0; i < 4000; ++i) {
    f.sim.schedule_at(i * 2000, [&f, &seq_a, i] {
      f.collector.handle_packet(make_data(0, 1, seq_a), 0);
      seq_a += 1460;
    });
    if (i % 4 == 0) {
      f.sim.schedule_at(i * 2000 + 500, [&f, &seq_b] {
        Packet p = make_data(2, 1, seq_b);
        p.src_mac = net::host_mac(2);
        p.src_ip = net::host_ip(2);
        f.collector.handle_packet(p, 0);
        seq_b += 1460;
      });
    }
  }
  f.sim.run_until(4000 * 2000);
  const auto flows = f.collector.flows_on_link(1);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_GT(flows[0].rate_bps, flows[1].rate_bps);
  EXPECT_EQ(flows[0].src_mac, net::host_mac(0));
}

TEST(Collector, RawSampleRingBounded) {
  CollectorConfig cfg;
  cfg.sample_ring_capacity = 64;
  Fixture f(cfg);
  f.feed(9e9, sim::milliseconds(1));
  const std::vector<Sample> ring = f.collector.raw_samples();
  EXPECT_EQ(ring.size(), 64u);
  EXPECT_GT(f.collector.samples_received(), 64u);  // the ring wrapped
  // Oldest first, newest last, across the wrap point.
  EXPECT_GT(ring.back().received_at, ring.front().received_at);
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_LE(ring[i - 1].received_at, ring[i].received_at);
  }
}

TEST(Collector, ZeroCapacityKeepsNoRawSamples) {
  CollectorConfig cfg;
  cfg.sample_ring_capacity = 0;
  Fixture f(cfg);
  std::uint64_t hooked = 0;
  f.collector.set_sample_hook([&](const Sample&) { ++hooked; });
  f.feed(9e9, sim::milliseconds(1));
  EXPECT_EQ(hooked, f.collector.samples_received());
  EXPECT_GT(hooked, 64u);
  EXPECT_TRUE(f.collector.raw_samples().empty());
}

TEST(Collector, SampleHookSeesEverySample) {
  Fixture f;
  int hooked = 0;
  f.collector.set_sample_hook([&](const Sample&) { ++hooked; });
  f.feed(5e9, sim::milliseconds(1));
  EXPECT_EQ(static_cast<std::uint64_t>(hooked),
            f.collector.samples_received());
}

TEST(Collector, ArpSamplesRecordedButNotTracked) {
  CollectorConfig cfg;
  cfg.sample_ring_capacity = 64;
  Fixture f(cfg);
  Packet arp;
  arp.proto = net::Protocol::kArp;
  arp.arp_op = net::ArpOp::kRequest;
  f.collector.handle_packet(arp, 0);
  EXPECT_EQ(f.collector.samples_received(), 1u);
  EXPECT_EQ(f.collector.flow_table().size(), 0u);
  EXPECT_EQ(f.collector.raw_samples().size(), 1u);
}

TEST(Collector, PureAcksTrackedWithoutRate) {
  Fixture f;
  Packet ack = make_data(0, 1, 0, 0, 0);
  ack.flags = net::kAck;
  ack.ack = 123456;
  for (int i = 0; i < 100; ++i) f.collector.handle_packet(ack, 0);
  EXPECT_EQ(f.collector.flow_table().size(), 1u);
  const FlowRecord* rec = f.collector.flow_table().find(ack.flow_key());
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->estimator.has_estimate());
  EXPECT_EQ(f.collector.link_utilization_bps(1), 0.0);
}


// OpenSample baseline estimator (§2.1): sparse control-plane samples with
// sequence numbers.

TEST(OpenSample, EstimatesRateFromSparseSamples) {
  OpenSampleEstimator est;
  Packet p = make_data(0, 1, 0);
  // 10 samples, 10 ms apart, of a 2 Gbps flow: seq advances 2.5 MB per gap.
  for (int i = 0; i < 10; ++i) {
    p.seq = static_cast<std::uint64_t>(i) * 2'500'000;
    est.add_sample(i * sim::milliseconds(10), p);
  }
  const auto* fs = est.find(p.flow_key());
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->samples, 10u);
  EXPECT_NEAR(fs->rate_bps(), 2e9, 4e7);
  EXPECT_EQ(fs->window(), 9 * sim::milliseconds(10));
}

TEST(OpenSample, SingleSampleHasNoRate) {
  OpenSampleEstimator est;
  est.add_sample(0, make_data(0, 1, 0));
  const auto* fs = est.find(make_data(0, 1, 0).flow_key());
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->rate_bps(), 0.0);
}

TEST(OpenSample, IgnoresRetransmissionsAndAcks) {
  OpenSampleEstimator est;
  Packet p = make_data(0, 1, 100'000);
  est.add_sample(0, p);
  p.seq = 0;  // retransmission: behind the high-water mark
  est.add_sample(sim::milliseconds(1), p);
  Packet ack = make_data(0, 1, 0, 0, 0);
  est.add_sample(sim::milliseconds(2), ack);
  const auto* fs = est.find(p.flow_key());
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(fs->samples, 1u);
}

TEST(OpenSample, TracksMultipleFlows) {
  OpenSampleEstimator est;
  est.add_sample(0, make_data(0, 1, 0));
  est.add_sample(0, make_data(2, 3, 0));
  EXPECT_EQ(est.flows_tracked(), 2u);
  EXPECT_EQ(est.samples_seen(), 2u);
}

// FlowTable unit tests.

TEST(FlowTable, UpsertCreatesOnce) {
  FlowTable table;
  FlowKey k = make_data(0, 1, 0).flow_key();
  FlowRecord& a = table.upsert(k, 100);
  a.samples = 7;
  FlowRecord& b = table.upsert(k, 200);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.samples, 7u);
  EXPECT_EQ(b.first_seen, 100);
  EXPECT_EQ(b.last_seen, 200);
}

TEST(FlowTable, EvictIdleReturnsRecords) {
  FlowTable table;
  table.upsert(make_data(0, 1, 0).flow_key(), 100);
  table.upsert(make_data(0, 2, 0).flow_key(), 500);
  const auto evicted = table.evict_idle(300);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].last_seen, 100);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, EvictIdleCutoffIsClosed) {
  // Regression: the eviction boundary is a closed interval. A flow last
  // seen *exactly* at the cutoff (idle for exactly idle_timeout) is
  // evicted on this sweep, not deferred to the next one; a flow one tick
  // newer survives.
  FlowTable table;
  table.upsert(make_data(0, 1, 0).flow_key(), 300);  // exactly at cutoff
  table.upsert(make_data(0, 2, 0).flow_key(), 301);  // one tick newer
  const auto evicted = table.evict_idle(300);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].last_seen, 300);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_NE(table.find(make_data(0, 2, 0).flow_key()), nullptr);
}

TEST(FlowTable, EvictIdleReturnsKeyOrder) {
  // The collector unwinds its utilization sums in the order evict_idle
  // returns the records, so that order must be FlowKey order, whatever
  // order the flows arrived in.
  FlowTable table;
  std::vector<FlowKey> idle;
  for (int src = 3; src >= 0; --src) {
    for (int dst = 7; dst >= 4; --dst) {
      idle.push_back(make_data(src, dst, 0).flow_key());
      table.upsert(idle.back(), 100);
    }
    table.upsert(make_data(src, 8, 0).flow_key(), 500);  // stays
  }
  const auto evicted = table.evict_idle(300);
  std::sort(idle.begin(), idle.end());
  ASSERT_EQ(evicted.size(), idle.size());
  for (std::size_t i = 0; i < idle.size(); ++i) {
    EXPECT_EQ(evicted[i].key, idle[i]) << "record " << i;
  }
  EXPECT_EQ(table.size(), 4u);
}

TEST(FlowTable, FindMissingReturnsNull) {
  FlowTable table;
  EXPECT_EQ(table.find(make_data(0, 1, 0).flow_key()), nullptr);
}

}  // namespace
}  // namespace planck::core
