// Fault tolerance walkthrough: a flow runs at line rate across the
// fat-tree when the cable under it is cut. Watch the failure plane react:
// the switch reports loss-of-signal over the control channel, the
// controller marks the link dead and fails the flow over to a surviving
// shadow-MAC tree with a single spoofed ARP, and TCP recovers — all
// within a few milliseconds. The cable is repaired later and the link
// returns to the controller's routing picture.

#include <cstdio>

#include "fault/fault_injector.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "te/planck_te.hpp"
#include "workload/testbed.hpp"

using namespace planck;

int main() {
  sim::Simulation simulation;
  const net::TopologyGraph graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::Testbed bed(simulation, graph, workload::TestbedConfig{});
  te::PlanckTe te(simulation, bed.controller(), te::PlanckTeConfig{});
  fault::FaultInjector injector(simulation, bed, /*seed=*/1);

  // Narrate every change in the controller's view of the topology.
  bed.controller().subscribe_link_status([&](int node, int port, bool up) {
    std::printf("%8.3f ms  controller: link (node %d, port %d) %s\n",
                sim::to_milliseconds(simulation.now()), node, port,
                up ? "UP" : "DOWN");
  });

  tcp::FlowStats stats;
  auto* flow = bed.host(0)->start_flow(
      net::host_ip(4), 5001, 100 * 1024 * 1024,
      [&](const tcp::FlowStats& s) { stats = s; });

  // Cut the flow's aggregation uplink at 10 ms; splice it at 60 ms.
  const net::PathHop hop = bed.controller().routing().path(0, 4, 0).hops[1];
  injector.schedule_link_outage(sim::milliseconds(10), sim::milliseconds(50),
                                hop.switch_node, hop.out_port);
  simulation.schedule_at(sim::milliseconds(10), [&] {
    std::printf("%8.3f ms  FAULT: cable (node %d, port %d) cut\n",
                sim::to_milliseconds(simulation.now()), hop.switch_node,
                hop.out_port);
  });

  simulation.run_until(sim::seconds(5));

  std::printf("\nflow complete        : %s\n", stats.complete ? "yes" : "no");
  std::printf("goodput              : %.2f Gbps\n",
              stats.throughput_bps() / 1e9);
  std::printf("retransmits          : %llu\n",
              static_cast<unsigned long long>(stats.retransmits));
  std::printf("failovers (TE + ctrl): %llu (flow now on tree %d)\n",
              static_cast<unsigned long long>(
                  te.failovers() + bed.controller().failovers()),
              bed.controller().tree_of(flow->key()));
  std::printf(
      "\nThe cable died mid-flow: frames on the wire were lost, the switch\n"
      "reported loss-of-signal within one control round trip, and the flow\n"
      "was moved to a surviving shadow tree in ~1 ms. The remaining stall\n"
      "is TCP's: the cut killed a whole in-flight window, so the sender\n"
      "waits out one RTO before resuming on the new path.\n");
  return 0;
}
