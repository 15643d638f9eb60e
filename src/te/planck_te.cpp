#include "te/planck_te.hpp"

#include <limits>
#include <vector>

#include "net/addresses.hpp"
#include "obs/obs.hpp"

namespace planck::te {

PlanckTe::PlanckTe(sim::Simulation& simulation,
                   controller::Controller& controller,
                   const PlanckTeConfig& config)
    : sim_(simulation),
      controller_(controller),
      config_(config),
      state_(controller.routing()) {
  register_metrics();
  controller_.subscribe_congestion(
      [this](const core::CongestionEvent& e) { process_congestion(e); });
  controller_.subscribe_link_status([this](int, int, bool up) {
    if (!up) handle_link_down();
  });
}

void PlanckTe::register_metrics() {
  obs::Telemetry* telemetry = sim_.telemetry();
  if (telemetry == nullptr) return;
  obs::MetricRegistry& reg = telemetry->metrics();
  reg.gauge("te", "events_processed",
            [this] { return static_cast<double>(events_processed_); });
  reg.gauge("te", "reroutes",
            [this] { return static_cast<double>(reroutes_); });
  reg.gauge("te", "failovers",
            [this] { return static_cast<double>(failovers_); });
  // The paper's control loop completes inside ~3 ms (§7.2); 10 us buckets
  // to 5 ms cover it with room for faulted runs.
  reroute_latency_metric_ =
      &reg.histogram("te", "reroute_latency_us", 0.0, 5000.0, 500);
}

void PlanckTe::process_congestion(const core::CongestionEvent& event) {
  ++events_processed_;

  // get_congn_flows + net_update_state: fold the notification's flow
  // annotations into our view.
  std::vector<net::FlowKey> notified;
  for (const core::FlowRate& fr : event.flows) {
    const int src = net::host_id_of_ip(fr.key.src_ip);
    const int dst = net::host_id_of_ip(fr.key.dst_ip);
    if (src < 0 || dst < 0) continue;
    KnownFlow& flow = state_.upsert(fr.key);
    flow.key = fr.key;
    flow.src_host = src;
    flow.dst_host = dst;
    // Boundary: the collector's FlowRate carries a raw double estimate.
    flow.rate_bps = sim::BitsPerSecF{fr.rate_bps};
    flow.last_heard = sim_.now();
    // Current tree: the controller's assignment is authoritative — samples
    // taken while a reroute propagates still carry the old routing MAC.
    flow.tree = controller_.tree_of(fr.key);
    if (flow.rate_bps >= config_.min_rate_bps) notified.push_back(fr.key);
  }

  state_.remove_old_flows(sim_.now() - config_.flow_timeout);

  for (const net::FlowKey& key : notified) {
    auto it = state_.flows().find(key);
    if (it == state_.flows().end()) continue;
    const std::uint64_t before = reroutes_;
    greedy_route_flow(state_.upsert(key));
    if (reroutes_ != before) {
      // Detection-to-action latency: the collector stamped detected_at
      // when the link crossed the threshold; the reroute was just issued.
      PLANCK_METRIC(
          reroute_latency_metric_,
          observe(sim::to_microseconds(sim_.now() - event.detected_at)));
    }
  }
}

void PlanckTe::greedy_route_flow(KnownFlow& flow, bool failover) {
  if (!failover && flow.last_reroute >= 0 &&
      sim_.now() - flow.last_reroute < config_.reroute_cooldown) {
    return;  // a previous reroute of this flow is still propagating
  }
  // net_rem_flow_path: loads without this flow.
  const auto loads = state_.link_loads(&flow.key);
  const controller::Routing& routing = controller_.routing();

  int best_tree = flow.tree;
  // Hysteresis: alternates must beat the current path by a real margin.
  // A dead current path has no bottleneck worth defending — anything
  // alive beats it.
  sim::BitsPerSecF best_bottleneck;
  if (failover) {
    best_tree = -1;
    best_bottleneck =
        sim::BitsPerSecF{-std::numeric_limits<double>::infinity()};
  } else {
    best_bottleneck =
        state_.path_bottleneck(
            routing.path(flow.src_host, flow.dst_host, flow.tree), loads) +
        config_.min_improvement_bps;
  }

  for (int tree = 0; tree < routing.num_trees(); ++tree) {
    if (tree == flow.tree) continue;
    const net::RoutePath path =
        routing.path(flow.src_host, flow.dst_host, tree);
    // Never reroute onto equipment the controller believes dead.
    if (!controller_.path_alive(path)) continue;
    const sim::BitsPerSecF bottleneck = state_.path_bottleneck(path, loads);
    if (bottleneck > best_bottleneck) {
      best_bottleneck = bottleneck;
      best_tree = tree;
    }
  }

  if (best_tree < 0) return;  // every alternate tree is dead too
  if (best_tree != flow.tree) {
    flow.tree = best_tree;
    flow.last_reroute = sim_.now();
    ++reroutes_;
    if (failover) ++failovers_;
    PLANCK_TRACE_ARGS(sim_, "te", failover ? "failover" : "reroute",
                      obs::argf("\"src_host\":%d,\"dst_host\":%d,\"tree\":%d",
                                flow.src_host, flow.dst_host, best_tree));
    flow.last_epoch =
        controller_.reroute_flow(flow.key, best_tree, config_.mechanism);
  }
}

void PlanckTe::handle_link_down() {
  const controller::Routing& routing = controller_.routing();
  for (auto& [key, flow] : state_.mutable_flows()) {
    // The controller may already have failed this flow over; its
    // assignment is authoritative.
    flow.tree = controller_.tree_of(key);
    const net::RoutePath path =
        routing.path(flow.src_host, flow.dst_host, flow.tree);
    if (controller_.path_alive(path)) continue;
    greedy_route_flow(flow, /*failover=*/true);
  }
}

}  // namespace planck::te
