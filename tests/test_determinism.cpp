// Determinism regression: two runs with the same seed must produce
// byte-identical event logs AND equal Simulation::determinism_digest()
// values — for the Figure-15 congestion/reroute scenario, a scenario with
// a randomized fault schedule and a lossy control channel, and a PlanckTE
// failover forced by a scheduled link outage. Any nondeterminism
// (unordered-map iteration, unseeded randomness, wall-clock leakage)
// shows up here as a log diff or a digest mismatch; the digest covers the
// full event stream, not just the logged milestones.

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/parallel.hpp"
#include "sim/simulation.hpp"
#include "stats/samples.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

namespace planck {
namespace {

using workload::Testbed;
using workload::TestbedConfig;

/// What a scenario run produces: the human-readable event log (compared
/// byte-for-byte) and the engine's rolling digest over every executed
/// event's (time, queue size) — the runtime backstop behind planck-lint
/// (DESIGN.md §7). The log only samples observable milestones; the digest
/// covers the entire event stream, so hash-order leaks that happen to
/// produce the same milestones still get caught.
struct RunResult {
  std::string log;
  std::uint64_t digest = 0;
  std::uint64_t failovers = 0;
};

/// Figure-15-style scenario: two colliding elephants, Planck detects the
/// congestion and TE moves one. Logs congestion events, reroutes, and flow
/// completions.
RunResult run_fig15(std::uint64_t seed) {
  sim::Simulation sim;
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  TestbedConfig cfg;
  cfg.seed = seed;
  Testbed bed(sim, graph, cfg);
  te::PlanckTe te(sim, bed.controller(), te::PlanckTeConfig{});

  std::ostringstream log;
  bed.controller().subscribe_congestion([&](const core::CongestionEvent& e) {
    log << "C " << sim.now() << " " << e.switch_node << " " << e.out_port
        << " " << static_cast<std::int64_t>(e.utilization_bps) << "\n";
  });
  for (int i : {0, 1}) {
    bed.host(i)->start_flow(net::host_ip(4 + i), 5001, 50 * 1024 * 1024,
                            [&log, &sim, i](const tcp::FlowStats& s) {
                              log << "F " << i << " " << s.completed_at
                                  << " " << s.total_bytes.count() << " "
                                  << s.retransmits << "\n";
                            });
  }
  sim.run_until(sim::seconds(2));
  log << "reroutes " << te.reroutes() << "\n";
  log << "arp " << bed.controller().arp_reroutes() << "\n";
  return RunResult{log.str(), sim.determinism_digest(), te.failovers()};
}

/// Faulted scenario: random link/switch/collector outages plus a lossy,
/// occasionally-spiking control channel. Logs the applied fault schedule,
/// the controller's link-status view, failovers, and completions.
RunResult run_faulted(std::uint64_t seed) {
  sim::Simulation sim;
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.controller_config.channel.loss_prob = 0.05;
  cfg.controller_config.channel.spike_prob = 0.02;
  cfg.controller_config.channel.seed = seed * 7919;
  Testbed bed(sim, graph, cfg);
  te::PlanckTe te(sim, bed.controller(), te::PlanckTeConfig{});
  fault::FaultInjector inj(sim, bed, seed);

  std::ostringstream log;
  bed.controller().subscribe_link_status([&](int node, int port, bool up) {
    log << "L " << sim.now() << " " << node << " " << port << " " << up
        << "\n";
  });

  fault::ChaosConfig chaos;
  chaos.num_faults = 5;
  inj.plan_random(chaos);

  for (int i = 0; i < 4; ++i) {
    bed.host(i)->start_flow(net::host_ip(i + 8), 5001, 8 * 1024 * 1024,
                            [&log, i](const tcp::FlowStats& s) {
                              log << "F " << i << " " << s.completed_at
                                  << " " << s.retransmits << "\n";
                            });
  }
  sim.run_until(sim::milliseconds(500));

  for (const fault::FaultRecord& r : inj.history()) {
    log << "H " << r.at << " " << static_cast<int>(r.kind) << " " << r.node
        << " " << r.port << "\n";
  }
  log << "failovers " << bed.controller().failovers() << "\n";
  log << "te_failovers " << te.failovers() << "\n";
  log << "rpc " << bed.controller().channel().rpc_calls() << " "
      << bed.controller().channel().rpc_retries() << " "
      << bed.controller().channel().rpc_failures() << "\n";
  return RunResult{log.str(), sim.determinism_digest(),
                   bed.controller().failovers() + te.failovers()};
}

/// PlanckTE failover scenario: colliding elephants teach TE the flows via
/// real congestion notifications, then a scheduled outage kills flow 0's
/// base-tree aggregation uplink mid-transfer, forcing TE (or the
/// controller's route-view failover) to move the flow to a surviving
/// shadow tree.
RunResult run_te_failover(std::uint64_t seed) {
  sim::Simulation sim;
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  TestbedConfig cfg;
  cfg.seed = seed;
  Testbed bed(sim, graph, cfg);
  te::PlanckTe te(sim, bed.controller(), te::PlanckTeConfig{});
  fault::FaultInjector inj(sim, bed, seed);

  std::ostringstream log;
  bed.controller().subscribe_link_status([&](int node, int port, bool up) {
    log << "L " << sim.now() << " " << node << " " << port << " " << up
        << "\n";
  });
  for (int i : {0, 1}) {
    bed.host(i)->start_flow(net::host_ip(4 + i), 5001, 50 * 1024 * 1024,
                            [&log, &sim, i](const tcp::FlowStats& s) {
                              log << "F " << i << " " << s.completed_at
                                  << " " << s.retransmits << "\n";
                            });
  }
  const net::PathHop uplink = bed.controller().routing().path(0, 4, 0).hops[1];
  inj.schedule_link_outage(sim::milliseconds(20), sim::milliseconds(200),
                           uplink.switch_node, uplink.out_port);

  sim.run_until(sim::milliseconds(500));
  log << "te_failovers " << te.failovers() << "\n";
  log << "failovers " << bed.controller().failovers() << "\n";
  log << "reroutes " << te.reroutes() << "\n";
  return RunResult{log.str(), sim.determinism_digest(),
                   bed.controller().failovers() + te.failovers()};
}

/// Prints the digest value itself (not just same-seed equality): CI logs
/// from two revisions can then be diffed to prove a refactor preserved the
/// exact event stream, the way the PR-8 state-localization sweep was
/// verified.
void report_digest(const char* scenario, std::uint64_t digest) {
  std::printf("[digest] %s %016" PRIx64 "\n", scenario, digest);
}

// Frozen digests of the three scenarios. These freeze the *exact event
// stream*, not just same-seed stability: any change to scheduling
// behaviour on the sequential engine trips one of these. Update them only
// for an intentional, explained schedule change. Last re-frozen when a
// transmitter stopped scheduling the end of serialization of a frame
// that nothing waits behind (DESIGN.md section 6), which removes events
// and reorders equal-time ties.
constexpr std::uint64_t kFig15Digest = 0xcb355472088719ccULL;
constexpr std::uint64_t kFaultDigest = 0x81c2cea7e4f218caULL;
constexpr std::uint64_t kTeFailoverDigest = 0xfa4163d4b7c8f235ULL;

// Frozen digests of the sharded engine's event stream at seed 3:
// run_partitioned at k = 4, 6 and 8, and run_sharded_fig15. Agreement
// across thread counts alone still passes a change that moves every
// thread count's schedule alike; these catch it.
constexpr std::uint64_t kPartitionedK4Digest = 0x72b2ad7b1a2bdf91ULL;
constexpr std::uint64_t kPartitionedK6Digest = 0xcffbc64e11c5ceb7ULL;
constexpr std::uint64_t kPartitionedK8Digest = 0xea636f30ad9cdd3fULL;
constexpr std::uint64_t kPartitionedFig15Digest = 0x461e857d76e8eed6ULL;

TEST(Determinism, Fig15ScenarioIsByteIdenticalAcrossRuns) {
  const RunResult a = run_fig15(3);
  const RunResult b = run_fig15(3);
  EXPECT_FALSE(a.log.empty());
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, kFig15Digest);
  report_digest("fig15", a.digest);
}

TEST(Determinism, Fig15DifferentSeedsDiverge) {
  // Sanity check that the log and digest actually capture seed-sensitive
  // behaviour.
  const RunResult a = run_fig15(3);
  const RunResult b = run_fig15(4);
  EXPECT_NE(a.log, b.log);
  EXPECT_NE(a.digest, b.digest);
}

TEST(Determinism, FaultedScenarioIsByteIdenticalAcrossRuns) {
  const RunResult a = run_faulted(11);
  const RunResult b = run_faulted(11);
  EXPECT_FALSE(a.log.empty());
  EXPECT_NE(a.log.find("H "), std::string::npos);  // faults actually fired
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, kFaultDigest);
  report_digest("fault", a.digest);
}

TEST(Determinism, TeFailoverScenarioIsByteIdenticalAcrossRuns) {
  const RunResult a = run_te_failover(7);
  const RunResult b = run_te_failover(7);
  EXPECT_FALSE(a.log.empty());
  EXPECT_NE(a.log.find("L "), std::string::npos);  // outage was observed
  EXPECT_GE(a.failovers, 1u);                      // and forced a failover
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.digest, kTeFailoverDigest);
  report_digest("te-failover", a.digest);
}

// --- partitioned engine (DESIGN.md §14) ------------------------------------

/// Runs a partitioned fat-tree testbed: pod-crossing flows from every
/// pod's first host, plus the Planck detection stack, under the sharded
/// engine with `threads` workers. Returns the engine digest — the whole
/// point: it must not depend on `threads`.
struct ParallelRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  int flows_done = 0;
};

ParallelRun run_partitioned(std::uint64_t seed, int k, int threads) {
  const auto graph = net::make_fat_tree(
      k, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const net::PartitionMap map = net::make_partition_map(graph);
  sim::ParallelEngine engine(map.num_partitions, map.lookahead(), threads);
  TestbedConfig cfg;
  cfg.seed = seed;
  Testbed bed(engine, map, graph, cfg);
  te::PlanckTe te(engine.control(), bed.controller(), te::PlanckTeConfig{});

  ParallelRun out;
  // Completions run on each sender's partition, on several threads.
  std::atomic<int> done{0};
  const int hosts = graph.num_hosts();
  const int hosts_per_pod = hosts / k;
  for (int pod = 0; pod < k; ++pod) {
    const int src = pod * hosts_per_pod;
    const int dst = (src + hosts / 2) % hosts;  // always another pod
    bed.host(src)->start_flow(net::host_ip(dst), 5001, 512 * 1024,
                              [&done](const tcp::FlowStats&) { ++done; });
  }
  engine.run_until(sim::milliseconds(50));
  out.flows_done = done.load();
  out.digest = engine.determinism_digest();
  out.events = engine.events_executed();
  return out;
}

TEST(Determinism, PartitionedEngineDigestIsThreadCountInvariant) {
  // The acceptance bar for the sharded engine: for a fixed partition
  // count, the engine digest is byte-identical whether the lookahead
  // windows run sequentially or on 2, 3 or 4 worker threads — the drain
  // order of every inbox is a function of partition state, never of
  // thread timing or of which worker a partition was assigned to.
  const struct {
    int k;
    std::uint64_t frozen;
  } cases[] = {{4, kPartitionedK4Digest},
               {6, kPartitionedK6Digest},
               {8, kPartitionedK8Digest}};
  for (const auto& [k, frozen] : cases) {
    const ParallelRun t1 = run_partitioned(3, k, 1);
    EXPECT_GT(t1.events, 0u) << "k=" << k;
    EXPECT_GT(t1.flows_done, 0) << "k=" << k;
    for (int threads : {2, 3, 4}) {
      const ParallelRun tn = run_partitioned(3, k, threads);
      EXPECT_EQ(t1.digest, tn.digest) << "k=" << k << ", " << threads;
      EXPECT_EQ(t1.events, tn.events) << "k=" << k << ", " << threads;
    }
    EXPECT_EQ(t1.digest, frozen) << "k=" << k;
    report_digest(("partitioned-k" + std::to_string(k)).c_str(), t1.digest);
  }
}

TEST(Determinism, PartitionedEngineSameSeedIsStableAndSeedsDiverge) {
  const ParallelRun a = run_partitioned(3, 4, 2);
  const ParallelRun b = run_partitioned(3, 4, 2);
  const ParallelRun c = run_partitioned(4, 4, 2);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_NE(a.digest, c.digest);
}

/// The Figure-15 scenario under the sharded engine. Collectors fire on
/// their switches' data partitions, so every congestion event reaches the
/// controller and TE through a cross-partition post to the control
/// partition.
struct ShardedFig15Run {
  std::uint64_t digest = 0;
  int congestion_events = 0;
  std::uint64_t reroutes = 0;
  int flows_done = 0;
};

ShardedFig15Run run_sharded_fig15(std::uint64_t seed, int threads) {
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const net::PartitionMap map = net::make_partition_map(graph);
  sim::ParallelEngine engine(map.num_partitions, map.lookahead(), threads);
  TestbedConfig cfg;
  cfg.seed = seed;
  Testbed bed(engine, map, graph, cfg);
  te::PlanckTe te(engine.control(), bed.controller(), te::PlanckTeConfig{});

  ShardedFig15Run out;
  bed.controller().subscribe_congestion(
      [&out](const core::CongestionEvent&) { ++out.congestion_events; });
  // Both senders sit in pod 0, so their completions share one partition.
  for (int i : {0, 1}) {
    bed.host(i)->start_flow(net::host_ip(4 + i), 5001, 50 * 1024 * 1024,
                            [&out](const tcp::FlowStats&) {
                              ++out.flows_done;
                            });
  }
  engine.run_until(sim::seconds(1));
  out.digest = engine.determinism_digest();
  out.reroutes = te.reroutes();
  return out;
}

TEST(Determinism, PartitionedFig15CongestionReachesTheController) {
  const ShardedFig15Run t1 = run_sharded_fig15(3, 1);
  const ShardedFig15Run t2 = run_sharded_fig15(3, 2);
  for (const ShardedFig15Run& r : {t1, t2}) {
    EXPECT_GE(r.congestion_events, 1);
    EXPECT_GE(r.reroutes, 1u);
    EXPECT_EQ(r.flows_done, 2);
  }
  EXPECT_EQ(t1.digest, t2.digest);
  EXPECT_EQ(t1.digest, kPartitionedFig15Digest);
  report_digest("partitioned-fig15", t1.digest);
}

/// What Figure 15 reads off a run: when congestion was first detected,
/// how many congestion events the controller saw, the ARP reroutes, and
/// each flow's completion time and retransmits. `lookahead` is the
/// partitioned engine's, the bound on how far detection may move.
struct Fig15Answers {
  sim::Duration lookahead = 0;
  sim::Time first_detection = -1;
  int congestion_events = 0;
  std::uint64_t arp_reroutes = 0;
  sim::Time completed_at[2] = {-1, -1};
  std::uint64_t retransmits = 0;
};

/// run_fig15's scenario on the plain Simulation (`threads` == 0) or on the
/// partitioned engine with `threads` workers.
Fig15Answers fig15_answers(std::uint64_t seed, int threads) {
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const net::PartitionMap map = net::make_partition_map(graph);
  TestbedConfig cfg;
  cfg.seed = seed;
  sim::Simulation plain;
  std::optional<sim::ParallelEngine> engine;
  std::optional<Testbed> bed;
  if (threads == 0) {
    bed.emplace(plain, graph, cfg);
  } else {
    engine.emplace(map.num_partitions, map.lookahead(), threads);
    bed.emplace(*engine, map, graph, cfg);
  }
  sim::Simulation& control = engine ? engine->control() : plain;
  te::PlanckTe te(control, bed->controller(), te::PlanckTeConfig{});

  Fig15Answers out;
  out.lookahead = map.lookahead();
  bed->controller().subscribe_congestion(
      [&out](const core::CongestionEvent& e) {
        if (out.first_detection < 0) out.first_detection = e.detected_at;
        ++out.congestion_events;
      });
  for (int i : {0, 1}) {
    bed->host(i)->start_flow(net::host_ip(4 + i), 5001, 50 * 1024 * 1024,
                             [&out, i](const tcp::FlowStats& s) {
                               out.completed_at[i] = s.completed_at;
                               out.retransmits += s.retransmits;
                             });
  }
  if (engine) {
    engine->run_until(sim::seconds(2));
  } else {
    plain.run_until(sim::seconds(2));
  }
  out.arp_reroutes = bed->controller().arp_reroutes();
  return out;
}

TEST(Determinism, Fig15AnswersAgreeAcrossEngines) {
  // The digest proves a run reproducible, not right: the partitioned
  // engine must also give the plain Simulation's answers to Figure 15.
  for (const std::uint64_t seed : {1u, 2u}) {
    const Fig15Answers plain = fig15_answers(seed, 0);
    ASSERT_GE(plain.first_detection, 0) << "seed " << seed;
    EXPECT_EQ(plain.arp_reroutes, 1u) << "seed " << seed;
    EXPECT_EQ(plain.retransmits, 0u) << "seed " << seed;
    for (const int threads : {1, 2}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(threads) + " threads");
      const Fig15Answers sharded = fig15_answers(seed, threads);
      EXPECT_LE(std::abs(sharded.first_detection - plain.first_detection),
                sharded.lookahead);
      EXPECT_EQ(sharded.congestion_events, plain.congestion_events);
      EXPECT_EQ(sharded.arp_reroutes, 1u);
      EXPECT_EQ(sharded.retransmits, 0u);
      for (int i : {0, 1}) {
        ASSERT_GT(plain.completed_at[i], 0) << "flow " << i;
        ASSERT_GT(sharded.completed_at[i], 0) << "flow " << i;
        EXPECT_NEAR(static_cast<double>(sharded.completed_at[i]),
                    static_cast<double>(plain.completed_at[i]),
                    1e-3 * static_cast<double>(plain.completed_at[i]))
            << "flow " << i;
      }
    }
  }
}

/// What the loaded ring gives: flows finished, FCT percentiles, and the
/// engine's digest and event count.
struct RingAnswers {
  int flows_done = 0;
  double fct_p50_ms = 0;
  double fct_p90_ms = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

/// The benchmark's sharded ring at k=4: host h sends 4 MiB to host h+4,
/// so every pod carries load, with Planck on and 5 us links. On the plain
/// Simulation (`threads` == 0) or the partitioned engine with `threads`
/// workers.
RingAnswers ring_answers(std::uint64_t seed, int threads) {
  const auto graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const net::PartitionMap map = net::make_partition_map(graph);
  TestbedConfig cfg;
  cfg.seed = seed;
  cfg.controller_config.seed = seed ^ 0x5eed;
  cfg.switch_config.flow_accounting = true;
  sim::Simulation plain;
  std::optional<sim::ParallelEngine> engine;
  std::optional<Testbed> bed;
  if (threads == 0) {
    bed.emplace(plain, graph, cfg);
  } else {
    engine.emplace(map.num_partitions, map.lookahead(), threads);
    bed.emplace(*engine, map, graph, cfg);
  }

  RingAnswers out;
  // Completions run on each sender's partition, on several threads: each
  // writes only its own flow's slot and counts itself done.
  const int hosts = graph.num_hosts();
  const int per_pod = hosts / 4;
  std::vector<double> fct(static_cast<std::size_t>(hosts), -1.0);
  std::atomic<int> done{0};
  for (int h = 0; h < hosts; ++h) {
    bed->host(h)->start_flow(
        net::host_ip((h + per_pod) % hosts), 5001, 4 * 1024 * 1024,
        [&fct, &done, h](const tcp::FlowStats& s) {
          fct[static_cast<std::size_t>(h)] =
              sim::to_milliseconds(s.completed_at - s.started_at);
          ++done;
        });
  }
  if (engine) {
    engine->run_until(sim::seconds(5));
    out.digest = engine->determinism_digest();
    out.events = engine->events_executed();
  } else {
    plain.run_until(sim::seconds(5));
    out.digest = plain.determinism_digest();
    out.events = plain.events_executed();
  }
  out.flows_done = done.load();
  stats::Samples fct_ms;
  for (const double ms : fct) {
    if (ms >= 0) fct_ms.add(ms);
  }
  out.fct_p50_ms = fct_ms.percentile(50);
  out.fct_p90_ms = fct_ms.percentile(90);
  return out;
}

TEST(Determinism, LoadedRingAnswersAgreeAcrossEngines) {
  for (const std::uint64_t seed : {1u, 2u}) {
    const RingAnswers plain = ring_answers(seed, 0);
    EXPECT_EQ(plain.flows_done, 16) << "seed " << seed;
    const RingAnswers t1 = ring_answers(seed, 1);
    const RingAnswers t2 = ring_answers(seed, 2);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(t1.flows_done, 16);
    EXPECT_EQ(t2.flows_done, 16);
    EXPECT_EQ(t1.digest, t2.digest);
    EXPECT_EQ(t1.events, t2.events);
    std::printf("[ring] seed %" PRIu64 " fct p50/p90 ms: plain %.6f/%.6f, "
                "1 thread %.6f/%.6f, 2 threads %.6f/%.6f\n",
                seed, plain.fct_p50_ms, plain.fct_p90_ms, t1.fct_p50_ms,
                t1.fct_p90_ms, t2.fct_p50_ms, t2.fct_p90_ms);
    for (const RingAnswers* sharded : {&t1, &t2}) {
      EXPECT_NEAR(sharded->fct_p50_ms, plain.fct_p50_ms,
                  1e-3 * plain.fct_p50_ms);
      EXPECT_NEAR(sharded->fct_p90_ms, plain.fct_p90_ms,
                  1e-3 * plain.fct_p90_ms);
    }
  }
}

TEST(Determinism, PartitionedLeafSpineRunsAndIsThreadCountInvariant) {
  const auto build = [](int threads) {
    const auto graph = net::make_leaf_spine(
        4, 2, 4,
        net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
    const net::PartitionMap map = net::make_partition_map(graph);
    sim::ParallelEngine engine(map.num_partitions, map.lookahead(), threads);
    TestbedConfig cfg;
    cfg.seed = 5;
    Testbed bed(engine, map, graph, cfg);
    // The two senders sit on different partitions.
    std::atomic<int> done{0};
    bed.host(0)->start_flow(net::host_ip(5), 5001, 256 * 1024,
                            [&done](const tcp::FlowStats&) { ++done; });
    bed.host(4)->start_flow(net::host_ip(13), 5001, 256 * 1024,
                            [&done](const tcp::FlowStats&) { ++done; });
    engine.run_until(sim::milliseconds(50));
    EXPECT_EQ(done, 2);
    return engine.determinism_digest();
  };
  EXPECT_EQ(build(1), build(4));
}

}  // namespace
}  // namespace planck
