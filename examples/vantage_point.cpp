// Vantage-point monitoring (§6.1): use a Planck collector as a switch-side
// tcpdump. The collector keeps a ring of recent samples; this example runs
// traffic through a fat-tree, then dumps each core switch's view to a
// tcpdump-compatible pcap file (open them with wireshark/tcpdump -r).

#include <cstdio>
#include <string>

#include "net/topology.hpp"
#include "pcap/pcap_writer.hpp"
#include "sim/simulation.hpp"
#include "workload/testbed.hpp"

using namespace planck;

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  sim::Simulation simulation;
  const net::TopologyGraph graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig config;
  config.collector_config.sample_ring_capacity = 4096;
  workload::Testbed bed(simulation, graph, config);

  // A little cross-pod traffic worth watching.
  int done = 0;
  for (int s : {0, 3, 6, 9}) {
    bed.host(s)->start_flow(net::host_ip((s + 5) % 16), 5001,
                            8 * 1024 * 1024,
                            [&](const tcp::FlowStats&) { ++done; });
  }
  simulation.run_until(sim::seconds(5));
  std::printf("flows completed: %d/4\n", done);

  // Dump each core switch's sample ring as a pcap trace.
  for (int c = 0; c < graph.shape().num_core; ++c) {
    const int node = graph.switch_node(graph.shape().core_switch_index(c));
    core::Collector* collector = bed.collector_by_node(node);
    pcap::PcapWriter writer;
    for (const core::Sample& sample : collector->raw_samples()) {
      writer.add(sample.received_at, sample.packet);
    }
    const std::string path =
        out_dir + "/core" + std::to_string(c) + ".pcap";
    if (!writer.write_file(path)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("%s: %zu packets (of %llu samples seen)\n", path.c_str(),
                writer.count(),
                static_cast<unsigned long long>(
                    collector->samples_received()));
  }
  std::printf("\nopen with: tcpdump -r core0.pcap | head\n");
  return 0;
}
