// Tests for workload generators and the experiment runner scaffolding.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "net/partition.hpp"
#include "sim/parallel.hpp"
#include "workload/experiment.hpp"
#include "workload/testbed.hpp"
#include "workload/workloads.hpp"

namespace planck::workload {
namespace {

TEST(Workloads, StrideMapping) {
  const auto flows = make_stride(16, 8, sim::bytes(100));
  ASSERT_EQ(flows.size(), 16u);
  for (int x = 0; x < 16; ++x) {
    EXPECT_EQ(flows[static_cast<std::size_t>(x)].src, x);
    EXPECT_EQ(flows[static_cast<std::size_t>(x)].dst, (x + 8) % 16);
    EXPECT_EQ(flows[static_cast<std::size_t>(x)].bytes, sim::bytes(100));
  }
}

TEST(Workloads, StrideOneIsNeighbor) {
  const auto flows = make_stride(4, 1, sim::bytes(10));
  EXPECT_EQ(flows[3].dst, 0);
}

TEST(Workloads, RandomBijectionIsPermutationWithoutFixedPoints) {
  sim::Rng rng(5);
  for (int run = 0; run < 20; ++run) {
    const auto flows = make_random_bijection(16, sim::bytes(100), rng);
    std::set<int> dsts;
    for (const auto& f : flows) {
      EXPECT_NE(f.src, f.dst);
      dsts.insert(f.dst);
    }
    EXPECT_EQ(dsts.size(), 16u);  // every host is a destination exactly once
  }
}

TEST(Workloads, RandomBijectionVariesAcrossRuns) {
  sim::Rng rng(5);
  const auto a = make_random_bijection(16, sim::bytes(100), rng);
  const auto b = make_random_bijection(16, sim::bytes(100), rng);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) differs |= a[i].dst != b[i].dst;
  EXPECT_TRUE(differs);
}

TEST(Workloads, RandomAvoidsSelf) {
  sim::Rng rng(7);
  for (int run = 0; run < 50; ++run) {
    for (const auto& f : make_random(16, sim::bytes(100), rng)) {
      EXPECT_NE(f.src, f.dst);
    }
  }
}

TEST(Workloads, RandomAllowsHotspots) {
  // Unlike the bijection, duplicates should appear often.
  sim::Rng rng(11);
  int runs_with_dup = 0;
  for (int run = 0; run < 50; ++run) {
    const auto flows = make_random(16, sim::bytes(100), rng);
    std::set<int> dsts;
    for (const auto& f : flows) dsts.insert(f.dst);
    if (dsts.size() < flows.size()) ++runs_with_dup;
  }
  EXPECT_GT(runs_with_dup, 40);
}

TEST(Workloads, StaggeredRespectsLocalityKnobs) {
  sim::Rng rng(13);
  int same_edge = 0;
  int same_pod = 0;
  const int trials = 200;
  for (int run = 0; run < trials; ++run) {
    for (const auto& f : make_staggered(16, sim::bytes(100), 0.5, 0.3, rng)) {
      EXPECT_NE(f.src, f.dst);
      if (f.src / 2 == f.dst / 2) ++same_edge;
      if (f.src / 4 == f.dst / 4) ++same_pod;
    }
  }
  const double edge_frac = static_cast<double>(same_edge) / (16.0 * trials);
  const double pod_frac = static_cast<double>(same_pod) / (16.0 * trials);
  // p_edge=0.5 targets the same edge (1 candidate of 2 is self, so
  // roughly half of those picks succeed plus spillover); coarse bounds.
  EXPECT_GT(edge_frac, 0.2);
  EXPECT_GT(pod_frac, edge_frac);
}

TEST(Workloads, ShuffleOrdersCoverEveryPeer) {
  sim::Rng rng(3);
  const auto orders = make_shuffle_orders(16, rng);
  ASSERT_EQ(orders.size(), 16u);
  for (int h = 0; h < 16; ++h) {
    const auto& order = orders[static_cast<std::size_t>(h)];
    ASSERT_EQ(order.size(), 15u);
    std::set<int> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), 15u);
    EXPECT_EQ(seen.count(h), 0u);
  }
}

TEST(Workloads, ShuffleOrdersDifferPerHost) {
  sim::Rng rng(3);
  const auto orders = make_shuffle_orders(16, rng);
  int identical_pairs = 0;
  for (int a = 0; a < 16; ++a) {
    for (int b = a + 1; b < 16; ++b) {
      std::vector<int> oa = orders[static_cast<std::size_t>(a)];
      std::vector<int> ob = orders[static_cast<std::size_t>(b)];
      // Compare the common subsequence (remove each other's id).
      std::erase(oa, b);
      std::erase(ob, a);
      if (oa == ob) ++identical_pairs;
    }
  }
  EXPECT_EQ(identical_pairs, 0);
}

// The sharded Testbed refuses an engine that does not match its partition
// map instead of running a schedule that breaks the lookahead bound.
TEST(ShardedTestbed, RejectsPartitionCountMismatch) {
  const auto graph = net::make_fat_tree(
      4, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const net::PartitionMap map = net::make_partition_map(graph);
  sim::ParallelEngine engine(map.num_partitions - 1, map.lookahead(), 1);
  EXPECT_THROW(Testbed(engine, map, graph, TestbedConfig{}),
               std::invalid_argument);
}

TEST(ShardedTestbed, RejectsLookaheadWiderThanBoundaryPropagation) {
  const auto graph = net::make_fat_tree(
      4, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const net::PartitionMap map = net::make_partition_map(graph);
  ASSERT_GT(map.cross_links, 0);
  sim::ParallelEngine engine(map.num_partitions, 4 * map.lookahead(), 1);
  EXPECT_THROW(Testbed(engine, map, graph, TestbedConfig{}),
               std::invalid_argument);
}

// Node-keyed lookups at their edges: hosts, nodes outside the graph,
// ports past the last one, and a testbed without Planck.
TEST(Testbed, NodeLookupsAtTheEdges) {
  const auto graph = net::make_fat_tree(
      4, net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  const int host_node = graph.host_node(0);
  const int edge_node = graph.peer(host_node, 0).node;
  const int monitor_port = graph.num_ports(edge_node);
  TestbedConfig planck_off;
  planck_off.enable_planck = false;
  sim::Simulation sim;
  sim::Simulation bare_sim;
  Testbed bed(sim, graph, TestbedConfig{});
  Testbed bare(bare_sim, graph, planck_off);

  EXPECT_NE(bed.collector_by_node(edge_node), nullptr);
  EXPECT_EQ(bed.collector_by_node(host_node), nullptr);
  EXPECT_EQ(bed.collector_by_node(-1), nullptr);
  EXPECT_EQ(bed.collector_by_node(graph.num_nodes()), nullptr);
  EXPECT_EQ(bare.collector_by_node(edge_node), nullptr);

  EXPECT_THROW(bed.switch_by_node(host_node), std::out_of_range);
  EXPECT_THROW(bed.switch_by_node(graph.num_nodes()), std::out_of_range);
  EXPECT_THROW(bed.set_collector_online(host_node, false), std::out_of_range);
  EXPECT_THROW(bare.set_collector_online(edge_node, false),
               std::out_of_range);

  // One datagram from host 0 to its edge neighbour crosses the host's
  // port-0 link and, mirrored, the edge switch's monitor link.
  net::Link* host_link = bed.link_out(host_node, 0);
  net::Link* monitor_link = bed.link_out(edge_node, monitor_port);
  ASSERT_NE(host_link, nullptr);
  ASSERT_NE(monitor_link, nullptr);
  bed.host(0)->send_udp(net::host_ip(1), 7000, 7000, 0, 1000);
  sim.run_until(sim::milliseconds(1));
  EXPECT_EQ(host_link->packets_sent().count(), 1u);
  EXPECT_EQ(monitor_link->packets_sent().count(), 1u);
  EXPECT_EQ(bed.collector_by_node(edge_node)->samples_received(), 1u);

  EXPECT_EQ(bed.link_out(host_node, 1), nullptr);
  EXPECT_EQ(bed.link_out(edge_node, monitor_port + 1), nullptr);
  EXPECT_EQ(bed.link_out(-1, 0), nullptr);
  EXPECT_EQ(bare.link_out(edge_node, monitor_port), nullptr);
  EXPECT_NE(bare.link_out(host_node, 0), nullptr);
}

TEST(Experiment, GraphSelectionByScheme) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kOptimal;
  EXPECT_EQ(make_experiment_graph(cfg).num_switches(), 1);
  cfg.scheme = Scheme::kStatic;
  EXPECT_EQ(make_experiment_graph(cfg).num_switches(), 20);
}

TEST(Experiment, FatTreeUsesPerTierPropagation) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kStatic;
  cfg.host_link_propagation = sim::microseconds(40);
  cfg.switch_link_propagation = sim::microseconds(5);
  const auto g = make_experiment_graph(cfg);
  EXPECT_EQ(g.link_spec(g.host_node(0), 0).propagation, sim::microseconds(40));
  // An aggregation uplink uses the switch value.
  const int agg = g.switch_node(g.shape().agg_switch_index(0, 0));
  EXPECT_EQ(g.link_spec(agg, 2).propagation, sim::microseconds(5));
}

TEST(Experiment, FatTreeRadixKnobScalesTheFabric) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kStatic;
  cfg.fat_tree_k = 6;
  const auto g = make_experiment_graph(cfg);
  EXPECT_EQ(g.num_hosts(), 54);
  EXPECT_EQ(g.num_switches(), 45);
  EXPECT_EQ(g.shape().kind, net::FabricKind::kFatTree);
  // The Optimal star matches the fat-tree's host count at any radix.
  cfg.scheme = Scheme::kOptimal;
  EXPECT_EQ(make_experiment_graph(cfg).num_hosts(), 54);
}

TEST(Experiment, NamesAreStable) {
  EXPECT_STREQ(scheme_name(Scheme::kPlanckTe), "PlanckTE");
  EXPECT_STREQ(scheme_name(Scheme::kPoll01s), "Poll-0.1s");
  EXPECT_STREQ(workload_name(WorkloadKind::kShuffle), "Shuffle");
}

TEST(Experiment, SmallStaticRunCompletes) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kStatic;
  cfg.workload = WorkloadKind::kStride;
  cfg.flow_bytes = sim::bytes(2 * 1024 * 1024);
  cfg.seed = 3;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_EQ(r.flows.size(), 16u);
  EXPECT_GT(r.avg_flow_throughput.count(), 0.0);
  EXPECT_GT(r.makespan, 0);
}

TEST(Experiment, OptimalBeatsStaticOnStride) {
  ExperimentConfig cfg;
  cfg.workload = WorkloadKind::kStride;
  cfg.flow_bytes = sim::bytes(8 * 1024 * 1024);
  cfg.seed = 4;
  cfg.scheme = Scheme::kStatic;
  const auto rs = run_experiment(cfg);
  cfg.scheme = Scheme::kOptimal;
  const auto ro = run_experiment(cfg);
  ASSERT_TRUE(rs.all_complete && ro.all_complete);
  EXPECT_GT(ro.avg_flow_throughput, rs.avg_flow_throughput);
}

TEST(Experiment, DeterministicForSeed) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kStatic;
  cfg.workload = WorkloadKind::kRandomBijection;
  cfg.flow_bytes = sim::bytes(2 * 1024 * 1024);
  cfg.seed = 77;
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(a.avg_flow_throughput.count(),
                   b.avg_flow_throughput.count());
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(Experiment, SeedsChangeRandomWorkloads) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kStatic;
  cfg.workload = WorkloadKind::kRandomBijection;
  cfg.flow_bytes = sim::bytes(2 * 1024 * 1024);
  cfg.seed = 1;
  const auto a = run_experiment(cfg);
  cfg.seed = 2;
  const auto b = run_experiment(cfg);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(Experiment, ShuffleReportsHostCompletions) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kOptimal;
  cfg.workload = WorkloadKind::kShuffle;
  cfg.flow_bytes = sim::bytes(256 * 1024);  // tiny shuffle: 16x15 transfers
  cfg.seed = 9;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_EQ(r.flows.size(), 16u * 15u);
  EXPECT_EQ(r.host_completion_seconds.size(), 16u);
  for (double t : r.host_completion_seconds) EXPECT_GT(t, 0.0);
}

TEST(Experiment, PlanckTeRunReportsReroutes) {
  ExperimentConfig cfg;
  cfg.scheme = Scheme::kPlanckTe;
  cfg.workload = WorkloadKind::kStride;
  cfg.flow_bytes = sim::bytes(8 * 1024 * 1024);
  cfg.seed = 6;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.all_complete);
  EXPECT_GT(r.congestion_events, 0u);
}

}  // namespace
}  // namespace planck::workload
