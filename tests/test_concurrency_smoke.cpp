// Concurrency smoke: the shared-state surfaces hardened for the
// partitioned engine (DESIGN.md §12), exercised from real std::threads so
// ThreadSanitizer has races to hunt. Three surfaces:
//
//   1. obs::MetricRegistry — concurrent registration + counter bumps +
//      histogram observations from N writer threads while an exporter
//      thread renders to_json() in a loop.
//   2. obs::Tracer — concurrent event emission from N component threads
//      while a reader polls size() and renders to_json().
//   3. sim::Simulation — one engine per thread, same seed, no sharing:
//      the partition-owned model. Digests must come out equal, proving
//      engine state has no hidden cross-instance channel (a mutable
//      global would show up here as a digest divergence or a TSan race).
//
// The plain build runs this as an ordinary test; the dedicated TSan CI
// job builds it with -fsanitize=thread, where any unguarded access found
// by planck-lint's guarded-field check would fail loudly.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/partition.hpp"
#include "net/topology.hpp"
#include "tcp/host.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "workload/testbed.hpp"

namespace planck {
namespace {

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 2000;

TEST(ConcurrencySmoke, RegistryExportRacesWriters) {
  obs::MetricRegistry reg;
  // Pre-register one shared counter every writer bumps, so the atomic
  // add path is contended as well as the per-thread registration path.
  obs::Counter& shared = reg.counter("smoke", "shared_ops");

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, &shared, t] {
      const std::string component = "smoke.t" + std::to_string(t);
      obs::Counter& own = reg.counter(component, "ops");
      obs::Histogram& lat = reg.histogram(component, "lat_us", 0.0, 100.0, 50);
      for (int i = 0; i < kOpsPerThread; ++i) {
        shared.add();
        own.add();
        lat.observe(static_cast<double>(i % 100));
        reg.gauge(component, "last_i").set(static_cast<double>(i));
      }
    });
  }

  // Exporter races the writers: every render must be a well-formed
  // planck-metrics-v1 document over whatever subset is registered so far.
  std::string last;
  for (int round = 0; round < 50; ++round) {
    last = reg.to_json();
    ASSERT_NE(last.find("\"schema\":\"planck-metrics-v1\""), std::string::npos);
  }
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(shared.value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    const std::string component = "smoke.t" + std::to_string(t);
    EXPECT_EQ(reg.counter(component, "ops").value(),
              static_cast<std::uint64_t>(kOpsPerThread));
    EXPECT_EQ(reg.histogram(component, "lat_us", 0.0, 100.0, 50).count(),
              static_cast<std::uint64_t>(kOpsPerThread));
  }
  EXPECT_NE(reg.to_json().find("\"shared_ops\""), std::string::npos);
}

TEST(ConcurrencySmoke, TracerEmissionRacesReader) {
  obs::Tracer tracer;

  std::vector<std::thread> emitters;
  emitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&tracer, t] {
      const std::string component = "part" + std::to_string(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const sim::Time now{static_cast<std::int64_t>(i) * 1000};
        tracer.instant(now, component, "tick");
        tracer.counter(now, component, "depth", static_cast<double>(i));
      }
    });
  }

  // Reader races the emitters; each snapshot must be internally
  // consistent JSON (every event's tid resolves to a named component).
  for (int round = 0; round < 25; ++round) {
    const std::string doc = tracer.to_json();
    ASSERT_NE(doc.find("\"traceEvents\""), std::string::npos);
  }
  for (std::thread& e : emitters) e.join();

  EXPECT_EQ(tracer.size(),
            static_cast<std::size_t>(kThreads) * kOpsPerThread * 2);
  const std::string doc = tracer.to_json();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(doc.find("part" + std::to_string(t)), std::string::npos);
  }
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
  // access in the barrier protocol — an outbox write racing the merge, a
  // bound_ read racing the completion phase — is a TSan hit here, and any
  // ordering leak is a digest divergence against the 1-thread run.
  const std::uint64_t sequential = run_sharded(42, 1);
  const std::uint64_t threaded = run_sharded(42, 4);
  EXPECT_EQ(sequential, threaded);

  // Repeat under thread churn: a second 4-thread run must reproduce.
  EXPECT_EQ(run_sharded(42, 4), threaded);
  EXPECT_NE(run_sharded(43, 4), threaded);
}

}  // namespace
}  // namespace planck
