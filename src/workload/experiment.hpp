#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "tcp/tcp_connection.hpp"
#include "workload/workloads.hpp"

namespace planck::workload {

/// The routing/TE schemes compared in §7 (Figure 14 et al.).
enum class Scheme {
  kStatic,    // PAST multipath, no engineering
  kPoll1s,    // global first fit from 1 s counter polls (Hedera-like)
  kPoll01s,   // same at 100 ms
  kPlanckTe,  // the paper's system
  kOptimal,   // all hosts on one non-blocking switch
};

enum class WorkloadKind {
  kStride,
  kShuffle,
  kRandomBijection,
  kRandom,
  kStaggered,
};

const char* scheme_name(Scheme scheme);
const char* workload_name(WorkloadKind kind);

struct ExperimentConfig {
  Scheme scheme = Scheme::kStatic;
  WorkloadKind workload = WorkloadKind::kStride;
  /// Bytes per flow (for shuffle: bytes per host pair).
  sim::Bytes flow_bytes = sim::mebibytes(100);
  int stride = 8;
  std::uint64_t seed = 1;

  /// Fat-tree radix for the simulated fabric (k^3/4 hosts). The Optimal
  /// star is sized to the same host count so schemes stay comparable.
  int fat_tree_k = 4;

  /// Host-link propagation stands in for end-host kernel/NIC latency so
  /// the base RTT matches the paper's ~180-250 us testbed (§5.4).
  sim::Duration host_link_propagation = sim::microseconds(40);
  sim::Duration switch_link_propagation = sim::microseconds(5);
};

struct ExperimentResult {
  std::vector<tcp::FlowStats> flows;
  /// Mean of per-flow goodput over each flow's own lifetime — the paper's
  /// "average flow throughput" metric (§7.3).
  sim::BitsPerSecF avg_flow_throughput{0.0};
  /// Shuffle only: per-host completion time (seconds from workload start).
  std::vector<double> host_completion_seconds;
  sim::Time makespan = 0;  // last completion, relative to workload start
  std::uint64_t reroutes = 0;
  std::uint64_t congestion_events = 0;
  bool all_complete = false;
};

/// Builds the testbed for `config`, runs the workload under the scheme,
/// and reports the paper's metrics.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// The topology a scheme runs on (star for Optimal, fat-tree otherwise).
net::TopologyGraph make_experiment_graph(const ExperimentConfig& config);

}  // namespace planck::workload
