// Figures 5, 6 and 7 (§5.3): characteristics of the sampled data when N
// max-rate flows with unique source-destination pairs are mirrored to a
// single oversubscribed monitor port.
//
//   Fig 5: CDF of burst length (consecutive samples of one flow), in MTUs,
//          for 13 flows — ~96% of bursts are a single MTU.
//   Fig 6: mean inter-arrival length (samples from other flows between two
//          bursts of a flow), in MTUs, vs number of flows — linear in N.
//   Fig 7: CDF of inter-arrival length for 13 flows, compared with the
//          transmit-gap distribution observed at the senders (the tail is
//          sender burstiness, not Planck).

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "stats/samples.hpp"
#include "stats/table.hpp"
#include "workload/testbed.hpp"

using namespace planck;

namespace {

struct SampleAnalysis {
  stats::Samples burst_lengths_mtu;        // per completed burst
  stats::Samples interarrival_mtu;         // per burst, other-flow samples
  stats::Samples sender_gaps_mtu;          // tx gaps at sources, in MTUs
};

SampleAnalysis run_case(int flows, sim::Duration duration) {
  sim::Simulation simulation;
  const net::TopologyGraph graph = net::make_star(
      2 * flows,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(40)});
  workload::TestbedConfig cfg;
  // Sender microbursts per Bullet Trains [23]: the paper's Figure 7
  // attributes the long inter-arrival tail to sender-side transmit gaps;
  // this reproduces that behaviour (see HostConfig).
  cfg.host_config.stall_every_bytes = sim::kibibytes(128);
  cfg.host_config.sender_stall_min = 0;
  cfg.host_config.sender_stall_max = sim::microseconds(60);
  workload::Testbed bed(simulation, graph, cfg);

  SampleAnalysis out;
  const sim::Time start = sim::milliseconds(5);
  const sim::Time measure_from = sim::milliseconds(20);  // steady state

  // Collector-side burst/inter-arrival analysis on the sample stream.
  auto* collector = bed.collector_by_node(graph.switch_node(0));
  struct FlowSeen {
    std::int64_t since_last_burst = 0;  // other-flow samples since my burst
    bool seen = false;
  };
  std::map<net::FlowKey, FlowSeen> table;
  net::FlowKey current{};
  std::int64_t current_burst = 0;
  collector->set_sample_hook([&](const core::Sample& s) {
    if (s.packet.payload == 0 || simulation.now() < measure_from) return;
    const net::FlowKey key = s.packet.flow_key();
    if (current_burst > 0 && !(key == current)) {
      out.burst_lengths_mtu.add(static_cast<double>(current_burst));
      current_burst = 0;
    }
    if (!(key == current)) {
      // A new burst of `key` begins: its inter-arrival length is the
      // number of other-flow samples since its previous burst ended.
      auto& fs = table[key];
      if (fs.seen) {
        out.interarrival_mtu.add(static_cast<double>(fs.since_last_burst));
      }
      fs.seen = true;
      fs.since_last_burst = 0;
      current = key;
    }
    ++current_burst;
    for (auto& [k, fs] : table) {
      if (!(k == key)) ++fs.since_last_burst;
    }
  });

  // Sender-side transmit gaps (Figure 7's lower line): the number of MTU
  // transmission slots that fit in each idle gap at the source.
  const double mtu_time_ns = 1538.0 * 8.0 / 10.0;  // 1230.4 ns at 10G
  for (int f = 0; f < flows; ++f) {
    auto last = std::make_shared<sim::Time>(-1);
    bed.host(f)->set_tx_hook([&out, &simulation, last,
                              measure_from, mtu_time_ns](const net::Packet& p) {
      if (p.payload == 0) return;
      if (*last >= 0 && simulation.now() >= measure_from) {
        const double gap_ns =
            static_cast<double>(simulation.now() - *last) - mtu_time_ns;
        if (gap_ns > 0) {
          out.sender_gaps_mtu.add(gap_ns / mtu_time_ns);
        }
      }
      *last = simulation.now();
    });
  }

  // N flows, unique src-dst pairs, each with dedicated ports: saturated.
  for (int f = 0; f < flows; ++f) {
    simulation.schedule_at(start + f * sim::microseconds(11), [&bed, f,
                                                               flows] {
      bed.host(f)->start_flow(net::host_ip(flows + f), 5001,
                              1'000'000'000'000LL);
    });
  }
  simulation.run_until(measure_from + duration);
  return out;
}

}  // namespace

int main() {
  bench::header("Figures 5-7", "burst and inter-arrival structure of "
                               "oversubscribed samples (§5.3)");
  const auto duration = static_cast<sim::Duration>(
      static_cast<double>(sim::milliseconds(60)) * bench::scale());

  // Figure 5: burst-length CDF at 13 flows.
  {
    const SampleAnalysis a = run_case(13, duration);
    bench::print_cdf("\nFigure 5 — CDF of burst length (MTUs), 13 flows",
                     a.burst_lengths_mtu, 16, "MTU");
    std::printf("  fraction of bursts <= 1 MTU: %.3f (paper: >0.96)\n",
                a.burst_lengths_mtu.cdf_at(1.0));

    // Figure 7 from the same run.
    bench::print_cdf(
        "\nFigure 7 — CDF of inter-arrival length (MTUs), 13 flows, "
        "observed at collector",
        a.interarrival_mtu, 16, "MTU");
    std::printf("  fraction <= 13 MTUs: %.3f (paper: ~0.85, long tail)\n",
                a.interarrival_mtu.cdf_at(13.0));
    bench::print_cdf(
        "\nFigure 7 — sender transmit-gap lengths (MTUs that fit in "
        "non-transmit periods)",
        a.sender_gaps_mtu, 16, "MTU");
  }

  // Figure 6: mean inter-arrival vs number of flows.
  std::printf("\nFigure 6 — inter-arrival length vs flow count\n");
  stats::TextTable table({"flows", "mean inter-arrival (MTU)", "ideal N-1"});
  for (int flows = 2; flows <= 14; flows += 2) {
    const SampleAnalysis a = run_case(flows, duration / 2);
    table.add_row({stats::format("%d", flows),
                   stats::format("%.2f", a.interarrival_mtu.mean()),
                   stats::format("%d", flows - 1)});
  }
  table.print();
  std::printf("\nexpected shape (paper): burst length ~1 MTU; inter-arrival "
              "grows ~linearly with flow count; collector inter-arrival tail "
              "matches sender burstiness.\n");
  return 0;
}
