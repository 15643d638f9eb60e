// Concurrency smoke: the state that threads of the partitioned engine
// share (DESIGN.md section 12), exercised from real std::threads so
// ThreadSanitizer has races to hunt. Four surfaces:
//
//   1. obs::Counter — four threads bump one pre-registered counter, the
//      one metric several threads may write.
//   2. sim::Simulation — one engine per thread, same seed, no sharing:
//      the partition-owned model. Digests must come out equal, proving
//      engine state has no hidden cross-instance channel (a mutable
//      global would show up here as a digest divergence or a TSan race).
//   3. sim::ParallelEngine — the sharded engine at 4 worker threads
//      through its lookahead-window barriers.
//   4. The telemetry plane on that engine: a traced sharded run, where
//      each partition writes its own trace shard and the export must be
//      byte-identical at any thread count.
//
// The plain build runs this as an ordinary test; the dedicated TSan CI
// job builds it with -fsanitize=thread.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/partition.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "tcp/host.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

namespace planck {
namespace {

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 2000;

TEST(ConcurrencySmoke, SharedCounterCountsEveryAdd) {
  obs::MetricRegistry reg;
  obs::Counter& shared = reg.counter("smoke", "shared_ops");
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&shared] {
      for (int i = 0; i < kOpsPerThread; ++i) shared.add();
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(shared.value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

/// One full testbed run on a private Simulation; returns its digest.
std::uint64_t run_partition(std::uint64_t seed) {
  sim::Simulation sim;
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig cfg;
  cfg.seed = seed;
  workload::Testbed bed(sim, graph, cfg);
  for (int i : {0, 1}) {
    bed.host(i)->start_flow(net::host_ip(4 + i), 5001, 1024 * 1024,
                            [](const tcp::FlowStats&) {});
  }
  sim.run_until(sim::milliseconds(50));
  return sim.determinism_digest();
}

TEST(ConcurrencySmoke, ParallelIndependentSimulationsStayDeterministic) {
  // The partition-owned model end to end: one engine per thread, zero
  // shared objects. Same seed must digest identically whether the run
  // happened alone or beside three concurrent engines.
  const std::uint64_t solo = run_partition(42);

  std::vector<std::uint64_t> digests(kThreads, 0);
  std::vector<std::thread> engines;
  engines.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    engines.emplace_back([&digests, t] {
      digests[static_cast<std::size_t>(t)] = run_partition(42);
    });
  }
  for (std::thread& e : engines) e.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(digests[static_cast<std::size_t>(t)], solo) << "partition " << t;
  }

  // Different seeds still diverge when run concurrently.
  std::uint64_t other = 0;
  std::thread probe([&other] { other = run_partition(43); });
  probe.join();
  EXPECT_NE(other, solo);
}

/// One sharded-engine run over a k=4 fat-tree with pod-crossing flows;
/// returns the engine digest.
std::uint64_t run_sharded(std::uint64_t seed, int threads) {
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const net::PartitionMap map = net::make_partition_map(graph);
  sim::ParallelEngine engine(map.num_partitions, map.lookahead(), threads);
  workload::TestbedConfig cfg;
  cfg.seed = seed;
  workload::Testbed bed(engine, map, graph, cfg);
  for (int i : {0, 4, 8, 12}) {
    bed.host(i)->start_flow(net::host_ip((i + 8) % 16), 5001, 1024 * 1024,
                            [](const tcp::FlowStats&) {});
  }
  engine.run_until(sim::milliseconds(50));
  return engine.determinism_digest();
}

TEST(ConcurrencySmoke, PartitionedEngineUnderFourWorkerThreads) {
  // The sharded engine itself under TSan: 4 worker threads drive 5 data
  // partitions (4 pods + core) through lookahead-window barriers, with
  // cross-partition traffic on every agg<->core cable. Any unsynchronized
  // access in the barrier protocol — an outbox write racing its
  // destination's drain, a bound_ read racing the serial phase — is a TSan
  // hit here, and any ordering leak is a digest divergence against the
  // 1-thread run.
  const std::uint64_t sequential = run_sharded(42, 1);
  const std::uint64_t threaded = run_sharded(42, 4);
  EXPECT_EQ(sequential, threaded);

  // Repeat under thread churn: a second 4-thread run must reproduce.
  EXPECT_EQ(run_sharded(42, 4), threaded);
  EXPECT_NE(run_sharded(43, 4), threaded);
}

/// The Figure-15 scenario (two elephants collide, PlanckTE reroutes one)
/// on the sharded engine with telemetry installed and tracing on.
struct TracedShardedRun {
  std::string trace_json;
  std::string metrics_json;
  std::size_t trace_events = 0;
};

TracedShardedRun run_traced_sharded_fig15(int threads) {
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const net::PartitionMap map = net::make_partition_map(graph);
  sim::ParallelEngine engine(map.num_partitions, map.lookahead(), threads);
  obs::Telemetry tel;
  engine.set_telemetry(&tel);  // before the testbed: components register
  tel.enable_tracing();
  workload::TestbedConfig cfg;
  cfg.seed = 1;
  workload::Testbed bed(engine, map, graph, cfg);
  te::PlanckTe te(engine.control(), bed.controller(), te::PlanckTeConfig{});
  for (int i : {0, 1}) {
    bed.host(i)->start_flow(net::host_ip(4 + i), 5001, 8 * 1024 * 1024);
  }
  engine.run_until(sim::milliseconds(60));
  TracedShardedRun out;
  out.trace_json = tel.tracer().to_json();
  out.metrics_json = tel.metrics().to_json();
  out.trace_events = tel.tracer().size();
  engine.set_telemetry(nullptr);
  return out;
}

/// `json` without its engine/threads gauge, the one metric that names the
/// thread count.
std::string without_thread_count(std::string json) {
  const std::size_t at =
      json.find("{\"component\":\"engine\",\"name\":\"threads\"");
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) json.erase(at, json.find('}', at) + 1 - at);
  return json;
}

TEST(ConcurrencySmoke, TracedShardedRunIsByteIdenticalAtAnyThreadCount) {
  // Every partition writes only its own trace shard, and export merges
  // the shards in (sim time, partition id, emission order): the trace and
  // the metrics cannot depend on which thread ran which partition when.
  const TracedShardedRun t1 = run_traced_sharded_fig15(1);
  EXPECT_GT(t1.trace_events, 0u);
  EXPECT_NE(t1.trace_json.find("\"reroute\""), std::string::npos);
  for (int threads : {2, 4}) {
    const TracedShardedRun tn = run_traced_sharded_fig15(threads);
    EXPECT_EQ(tn.trace_events, t1.trace_events) << threads << " threads";
    EXPECT_TRUE(tn.trace_json == t1.trace_json) << threads << " threads";
    EXPECT_EQ(without_thread_count(tn.metrics_json),
              without_thread_count(t1.metrics_json))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace planck
