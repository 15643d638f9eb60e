#include "workload/experiment.hpp"

#include <algorithm>
#include <memory>

#include "te/planck_te.hpp"
#include "te/poll_te.hpp"
#include "workload/testbed.hpp"

namespace planck::workload {

namespace {
/// Every link runs at the paper's 10 GbE.
constexpr sim::BitsPerSec kLinkRate = sim::gigabits_per_sec(10);
/// Fat-tree radix of the simulated fabric (k^3/4 hosts). The Optimal star
/// is sized to the same host count so schemes stay comparable.
constexpr int kFatTreeK = 4;
/// Host-link propagation stands in for end-host kernel/NIC latency so the
/// base RTT matches the paper's ~180-250 us testbed (§5.4); the fabric's
/// links carry cable latency.
constexpr sim::Duration kHostLinkPropagation = sim::microseconds(40);
constexpr sim::Duration kSwitchLinkPropagation = sim::microseconds(5);
/// Transfers each shuffle host keeps in flight at a time.
constexpr int kShuffleConcurrency = 2;
/// All flows begin at this offset plus a small per-flow jitter.
constexpr sim::Duration kStartTime = sim::milliseconds(10);
constexpr sim::Duration kStartJitter = sim::microseconds(100);
/// Give up after this much simulated time.
constexpr sim::Duration kMaxSimTime = sim::seconds(600);
}  // namespace

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kStatic:
      return "Static";
    case Scheme::kPoll1s:
      return "Poll-1s";
    case Scheme::kPoll01s:
      return "Poll-0.1s";
    case Scheme::kPlanckTe:
      return "PlanckTE";
    case Scheme::kOptimal:
      return "Optimal";
  }
  return "?";
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kStride:
      return "Stride";
    case WorkloadKind::kShuffle:
      return "Shuffle";
    case WorkloadKind::kRandomBijection:
      return "Random Bijection";
    case WorkloadKind::kRandom:
      return "Random";
    case WorkloadKind::kStaggered:
      return "Staggered Prob";
  }
  return "?";
}

net::TopologyGraph make_experiment_graph(const ExperimentConfig& config) {
  constexpr int k = kFatTreeK;
  net::LinkSpec host_spec;
  host_spec.rate = kLinkRate;
  host_spec.propagation = kHostLinkPropagation;
  if (config.scheme == Scheme::kOptimal) {
    return net::make_star(k * (k / 2) * (k / 2), host_spec);
  }
  // Fat-tree with distinct host vs inter-switch propagation: host links
  // carry the host-latency stand-in, the fabric carries cable latency.
  net::LinkSpec fabric_spec = host_spec;
  fabric_spec.propagation = kSwitchLinkPropagation;
  return net::make_fat_tree(k, host_spec, fabric_spec);
}

namespace {

/// Orchestrates a shuffle: each host runs kShuffleConcurrency transfers
/// at a time through its random destination order.
class ShuffleDriver {
 public:
  ShuffleDriver(Testbed& bed, std::vector<std::vector<int>> orders,
                sim::Bytes bytes, sim::Time t0, ExperimentResult& result)
      : bed_(bed),
        orders_(std::move(orders)),
        bytes_(bytes),
        t0_(t0),
        result_(result) {
    next_.resize(orders_.size(), 0);
    remaining_.resize(orders_.size());
    for (std::size_t h = 0; h < orders_.size(); ++h) {
      remaining_[h] = static_cast<int>(orders_[h].size());
      for (int c = 0; c < kShuffleConcurrency; ++c) {
        start_next(static_cast<int>(h));
      }
    }
  }

  bool done() const { return hosts_done_ == static_cast<int>(orders_.size()); }

 private:
  void start_next(int host) {
    auto& idx = next_[static_cast<std::size_t>(host)];
    if (idx >= orders_[static_cast<std::size_t>(host)].size()) return;
    const int dst = orders_[static_cast<std::size_t>(host)][idx++];
    bed_.host(host)->start_flow(
        net::host_ip(dst), 5001, bytes_.count(),
        [this, host](const tcp::FlowStats& stats) {
          result_.flows.push_back(stats);
          if (--remaining_[static_cast<std::size_t>(host)] == 0) {
            result_.host_completion_seconds.push_back(
                sim::to_seconds(stats.completed_at - t0_));
            ++hosts_done_;
            if (done()) bed_.sim().stop();
          } else {
            start_next(host);
          }
        });
  }

  Testbed& bed_;
  std::vector<std::vector<int>> orders_;
  sim::Bytes bytes_;
  sim::Time t0_;
  ExperimentResult& result_;
  std::vector<std::size_t> next_;
  std::vector<int> remaining_;
  int hosts_done_ = 0;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  sim::Simulation simulation;
  sim::Rng rng(config.seed);
  ExperimentResult result;

  const net::TopologyGraph graph = make_experiment_graph(config);

  TestbedConfig bed_config;
  bed_config.enable_planck = config.scheme == Scheme::kPlanckTe;
  bed_config.switch_config.flow_accounting =
      config.scheme == Scheme::kPoll1s || config.scheme == Scheme::kPoll01s;
  bed_config.controller_config.seed = config.seed ^ 0x5eed;

  Testbed bed(simulation, graph, bed_config);

  // Attach the scheme's engineering application.
  std::unique_ptr<te::PlanckTe> planck_te;
  std::unique_ptr<te::PollTe> poll_te;
  switch (config.scheme) {
    case Scheme::kPlanckTe:
      planck_te = std::make_unique<te::PlanckTe>(
          simulation, bed.controller(), te::PlanckTeConfig{});
      break;
    case Scheme::kPoll1s:
    case Scheme::kPoll01s: {
      te::PollTeConfig poll;
      poll.interval = config.scheme == Scheme::kPoll1s
                          ? sim::seconds(1)
                          : sim::milliseconds(100);
      poll.poll_latency = std::min<sim::Duration>(
          sim::milliseconds(25), poll.interval / 4);
      poll_te = std::make_unique<te::PollTe>(
          simulation, bed.controller(), bed.switch_nodes(), poll);
      poll_te->start();
      break;
    }
    default:
      break;
  }

  const sim::Time t0 = kStartTime;
  std::size_t expected_flows = 0;
  std::size_t completed_flows = 0;
  std::unique_ptr<ShuffleDriver> shuffle;

  if (config.workload == WorkloadKind::kShuffle) {
    auto orders = make_shuffle_orders(graph.num_hosts(), rng);
    for (const auto& o : orders) expected_flows += o.size();
    simulation.schedule_at(t0, [&, orders = std::move(orders)]() mutable {
      shuffle = std::make_unique<ShuffleDriver>(bed, std::move(orders),
                                                config.flow_bytes, t0, result);
    });
  } else {
    std::vector<FlowSpec> flows;
    switch (config.workload) {
      case WorkloadKind::kStride:
        flows = make_stride(graph.num_hosts(), config.stride,
                            config.flow_bytes);
        break;
      case WorkloadKind::kRandomBijection:
        flows = make_random_bijection(graph.num_hosts(), config.flow_bytes,
                                      rng);
        break;
      case WorkloadKind::kRandom:
        flows = make_random(graph.num_hosts(), config.flow_bytes, rng);
        break;
      case WorkloadKind::kStaggered:
        flows = make_staggered(graph.num_hosts(), config.flow_bytes, 0.2,
                               0.3, rng);
        break;
      case WorkloadKind::kShuffle:
        break;
    }
    expected_flows = flows.size();
    for (const FlowSpec& spec : flows) {
      const auto jitter = static_cast<sim::Duration>(
          rng.below(static_cast<std::uint64_t>(kStartJitter)));
      simulation.schedule_at(t0 + spec.start_offset + jitter, [&, spec] {
        bed.host(spec.src)->start_flow(
            net::host_ip(spec.dst), 5001, spec.bytes.count(),
            [&](const tcp::FlowStats& stats) {
              result.flows.push_back(stats);
              if (++completed_flows == expected_flows) simulation.stop();
            });
      });
    }
  }

  simulation.run_until(kMaxSimTime);

  result.all_complete = result.flows.size() == expected_flows;
  if (!result.flows.empty()) {
    double sum = 0.0;
    sim::Time last = t0;
    for (const tcp::FlowStats& stats : result.flows) {
      sum += stats.throughput_bps();
      last = std::max(last, stats.completed_at);
    }
    result.avg_flow_throughput =
        sim::BitsPerSecF{sum / static_cast<double>(result.flows.size())};
    result.makespan = last - t0;
  }
  if (planck_te) {
    result.reroutes = planck_te->reroutes();
    result.congestion_events = planck_te->events_processed();
  }
  if (poll_te) result.reroutes = poll_te->reroutes();
  return result;
}

}  // namespace planck::workload
