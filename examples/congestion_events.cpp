// Subscribing to Planck events (§3.3): applications don't poll — they
// subscribe to collector events through the controller and react within
// milliseconds. This example logs every congestion notification (link,
// utilization, annotated flows) while two flows collide and a third party
// (this program) decides what to do: here it just reroutes by hand the
// first time, demonstrating the raw API beneath PlanckTe.

#include <cstdio>

#include "controller/controller.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "workload/testbed.hpp"

using namespace planck;

int main() {
  sim::Simulation simulation;
  const net::TopologyGraph graph = net::make_fat_tree(4,
      net::LinkSpec{sim::gigabits_per_sec(10), sim::microseconds(5)});
  workload::TestbedConfig config;
  workload::Testbed bed(simulation, graph, config);

  int events = 0;
  bool rerouted = false;
  bed.controller().subscribe_congestion([&](const core::CongestionEvent& e) {
    ++events;
    if (events <= 5 || events % 50 == 0) {
      std::printf("[%8.3f ms] congestion on switch node %d port %d: "
                  "%.2f/%.0f Gbps, %zu flows\n",
                  sim::to_milliseconds(e.detected_at), e.switch_node,
                  e.out_port, e.utilization_bps / 1e9,
                  static_cast<double>(e.capacity_bps) / 1e9,
                  e.flows.size());
      for (const auto& fr : e.flows) {
        std::printf("    %s -> %s  %.2f Gbps%s\n",
                    net::ip_to_string(fr.key.src_ip).c_str(),
                    net::ip_to_string(fr.key.dst_ip).c_str(),
                    fr.rate_bps / 1e9,
                    net::is_shadow_mac(fr.dst_mac) ? "  (on shadow path)"
                                                   : "");
      }
    }
    // A hand-rolled one-shot TE decision: move the slower of two flows.
    if (!rerouted && e.flows.size() >= 2) {
      rerouted = true;
      const core::FlowRate& victim = e.flows.back();
      std::printf("  -> rerouting %s -> %s to shadow tree 2 via ARP\n",
                  net::ip_to_string(victim.key.src_ip).c_str(),
                  net::ip_to_string(victim.key.dst_ip).c_str());
      bed.controller().reroute_flow(victim.key, 2,
                                    controller::RerouteMechanism::kArp);
    }
  });

  int done = 0;
  tcp::FlowStats s1, s2;
  bed.host(0)->start_flow(net::host_ip(4), 5001, 50 * 1024 * 1024,
                          [&](const tcp::FlowStats& s) {
                            s1 = s;
                            if (++done == 2) simulation.stop();
                          });
  simulation.schedule_at(sim::milliseconds(10), [&] {
    bed.host(1)->start_flow(net::host_ip(5), 5001, 50 * 1024 * 1024,
                            [&](const tcp::FlowStats& s) {
                              s2 = s;
                              if (++done == 2) simulation.stop();
                            });
  });
  simulation.run_until(sim::seconds(10));

  std::printf("\nflow 1: %.2f Gbps (%llu retransmits)\n",
              s1.throughput_bps() / 1e9,
              static_cast<unsigned long long>(s1.retransmits));
  std::printf("flow 2: %.2f Gbps (%llu retransmits)\n",
              s2.throughput_bps() / 1e9,
              static_cast<unsigned long long>(s2.retransmits));
  std::printf("events observed: %d\n", events);
  return done == 2 ? 0 : 1;
}
