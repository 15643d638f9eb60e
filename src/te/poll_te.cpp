#include "te/poll_te.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/addresses.hpp"

namespace planck::te {

namespace {
/// Only flows above this fraction of line rate are (re)placed — the
/// Hedera elephant threshold.
constexpr double kElephantFraction = 0.10;
/// Placement moves a flow with one OpenFlow rule at its ingress switch.
constexpr controller::RerouteMechanism kRerouteMechanism =
    controller::RerouteMechanism::kOpenFlow;
}  // namespace

PollTe::PollTe(sim::Simulation& simulation,
               controller::Controller& controller,
               std::vector<switchsim::Switch*> switches,
               const PollTeConfig& config)
    : sim_(simulation),
      controller_(controller),
      switches_(std::move(switches)),
      config_(config),
      poll_timer_(simulation, [this] { poll(); }) {
  for (const switchsim::Switch* sw : switches_) {
    if (!sw->config().flow_accounting) {
      throw std::invalid_argument(
          "PollTe polls per-flow counters: switch " + sw->name() +
          " has SwitchConfig::flow_accounting off");
    }
  }
}

void PollTe::start() {
  prev_poll_time_ = sim_.now();
  poll_timer_.schedule(config_.interval);
}

void PollTe::poll() {
  ++polls_;
  const sim::Time now = sim_.now();
  const double interval_s = sim::to_seconds(now - prev_poll_time_);

  // Snapshot per-flow byte counters across all switches. A flow's bytes
  // are counted at several switches; take the maximum (its ingress count).
  std::map<net::FlowKey, sim::Bytes> bytes;
  for (const switchsim::Switch* sw : switches_) {
    for (const auto& [key, counters] : sw->flow_counters()) {
      auto& b = bytes[key];
      b = std::max(b, counters.bytes);
    }
  }

  // `flows` is in key order, which survives all the way into placement
  // (and its reroute RPCs).
  std::vector<KnownFlow> flows;
  for (const auto& [key, b] : bytes) {
    const sim::Bytes prev = prev_bytes_[key];
    prev_bytes_[key] = b;
    if (b <= prev || interval_s <= 0.0) continue;
    const int src = net::host_id_of_ip(key.src_ip);
    const int dst = net::host_id_of_ip(key.dst_ip);
    if (src < 0 || dst < 0) continue;
    KnownFlow flow;
    flow.key = key;
    flow.src_host = src;
    flow.dst_host = dst;
    flow.tree = controller_.tree_of(key);
    flow.rate_bps = sim::rate_of(b - prev, now - prev_poll_time_);
    flow.last_heard = now;
    flows.push_back(flow);
  }
  prev_poll_time_ = now;

  // Counter collection takes poll_latency; placement acts on data that old.
  sim_.schedule(config_.poll_latency, [this, flows = std::move(flows)] {
    place_flows(flows);
  });
  poll_timer_.schedule(config_.interval);
}

std::vector<double> PollTe::estimate_demands(
    const std::vector<KnownFlow>& flows, int num_hosts) {
  const std::size_t n = flows.size();
  std::vector<double> demand(n, 0.0);
  std::vector<bool> converged(n, false);
  std::vector<bool> recv_limited(n, false);

  for (int iter = 0; iter < 64; ++iter) {
    bool changed = false;

    // Source pass: split each source's residual capacity equally among its
    // unconverged flows.
    for (int s = 0; s < num_hosts; ++s) {
      double conv = 0.0;
      int unconv = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (flows[i].src_host != s) continue;
        if (converged[i]) {
          conv += demand[i];
        } else {
          ++unconv;
        }
      }
      if (unconv == 0) continue;
      const double share = std::max(0.0, 1.0 - conv) / unconv;
      for (std::size_t i = 0; i < n; ++i) {
        if (flows[i].src_host == s && !converged[i] &&
            demand[i] != share) {
          demand[i] = share;
          changed = true;
        }
      }
    }

    // Destination pass: if a receiver is oversubscribed, its flows are
    // receiver-limited and converge to an equal share of the receiver.
    for (int d = 0; d < num_hosts; ++d) {
      double total = 0.0;
      std::vector<std::size_t> in;
      for (std::size_t i = 0; i < n; ++i) {
        if (flows[i].dst_host != d) continue;
        in.push_back(i);
        total += demand[i];
        recv_limited[i] = true;
      }
      if (total <= 1.0 || in.empty()) {
        for (std::size_t i : in) recv_limited[i] = false;
        continue;
      }
      double allocated = 0.0;
      std::size_t limited = in.size();
      double share = 1.0 / static_cast<double>(limited);
      for (;;) {
        bool moved = false;
        std::size_t still = 0;
        for (std::size_t i : in) {
          if (!recv_limited[i]) continue;
          if (demand[i] < share) {
            allocated += demand[i];
            recv_limited[i] = false;
            moved = true;
          } else {
            ++still;
          }
        }
        if (!moved || still == 0) {
          limited = still;
          break;
        }
        limited = still;
        share = (1.0 - allocated) / static_cast<double>(limited);
      }
      for (std::size_t i : in) {
        if (recv_limited[i]) {
          if (demand[i] != share || !converged[i]) changed = true;
          demand[i] = share;
          converged[i] = true;
        }
      }
    }

    if (!changed) break;
  }
  return demand;
}

void PollTe::place_flows(std::vector<KnownFlow> flows) {
  const controller::Routing& routing = controller_.routing();
  if (routing.num_trees() <= 1) return;

  // Mice (including pure-ACK reverse flows) are dropped before demand
  // estimation: the estimator assumes backlogged senders, and a phantom
  // full-rate demand for an ACK stream would poison placement.
  std::erase_if(flows, [&](const KnownFlow& f) {
    const sim::BitsPerSecF line_rate = sim::to_rate_estimate(
        routing.graph()
            .link_spec(routing.graph().host_node(f.src_host), 0)
            .rate);
    return f.rate_bps < 0.01 * line_rate;
  });

  // Measured rates tell us who exists; demands tell us what to place
  // (Hedera): a congested flow's measured rate understates its demand.
  const std::vector<double> demands =
      estimate_demands(flows, routing.num_hosts());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const sim::BitsPerSecF line_rate = sim::to_rate_estimate(
        routing.graph()
            .link_spec(routing.graph().host_node(flows[i].src_host), 0)
            .rate);
    flows[i].rate_bps = demands[i] * line_rate;
  }

  // Global first fit: consider elephants in descending demand; everything
  // else stays put but still loads its current path. Equal demands break
  // ties on the flow key so placement order never depends on input order.
  std::sort(flows.begin(), flows.end(),
            [](const KnownFlow& a, const KnownFlow& b) {
              if (a.rate_bps != b.rate_bps) return a.rate_bps > b.rate_bps;
              return a.key < b.key;
            });

  std::map<net::DirectedLink, sim::BitsPerSecF> loads;
  auto add_load = [&](const net::RoutePath& path, sim::BitsPerSecF rate) {
    for (const net::PathHop& hop : path.hops) {
      loads[net::DirectedLink{hop.switch_node, hop.out_port}] += rate;
    }
  };
  auto fits = [&](const net::RoutePath& path, sim::BitsPerSecF rate) {
    for (const net::PathHop& hop : path.hops) {
      const sim::BitsPerSecF capacity = sim::to_rate_estimate(
          routing.graph().link_spec(hop.switch_node, hop.out_port).rate);
      const auto it =
          loads.find(net::DirectedLink{hop.switch_node, hop.out_port});
      const sim::BitsPerSecF load =
          it == loads.end() ? sim::BitsPerSecF{0.0} : it->second;
      if (load + rate > capacity) return false;
    }
    return true;
  };

  for (KnownFlow& flow : flows) {
    const sim::BitsPerSecF line_rate = sim::to_rate_estimate(
        routing.graph()
            .link_spec(routing.graph().host_node(flow.src_host), 0)
            .rate);
    if (flow.rate_bps < kElephantFraction * line_rate) {
      add_load(routing.path(flow.src_host, flow.dst_host, flow.tree),
               flow.rate_bps);
      continue;
    }
    // A flow that still fits where it is stays put (placement stability);
    // otherwise first fit over the trees in order.
    int chosen = -1;
    if (fits(routing.path(flow.src_host, flow.dst_host, flow.tree),
             flow.rate_bps)) {
      chosen = flow.tree;
    } else {
      for (int tree = 0; tree < routing.num_trees(); ++tree) {
        if (tree != flow.tree &&
            fits(routing.path(flow.src_host, flow.dst_host, tree),
                 flow.rate_bps)) {
          chosen = tree;
          break;
        }
      }
    }
    if (chosen < 0) chosen = flow.tree;  // nothing fits: stay
    add_load(routing.path(flow.src_host, flow.dst_host, chosen),
             flow.rate_bps);
    if (chosen != flow.tree) {
      ++reroutes_;
      controller_.reroute_flow(flow.key, chosen, kRerouteMechanism);
    }
  }
}

}  // namespace planck::te
