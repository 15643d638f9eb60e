#include "switchsim/switch.hpp"

#include <cassert>
#include <utility>

#include "obs/obs.hpp"

namespace planck::switchsim {

namespace {
/// Random delay added to each mirror replica before it competes for the
/// monitor-port buffer, modelling the ASIC's egress-pipeline/port
/// arbitration. Without it, a discrete-event simulation phase-locks:
/// identical-rate input streams have fixed arrival phases and the same
/// flow wins every freed buffer slot, producing unrealistically long
/// sample bursts. One MTU-time of jitter makes the admission winner
/// effectively uniform across contending inputs, matching the
/// single-MTU bursts the paper measures (Figure 5). Never applied to
/// the original packet.
constexpr sim::Duration kMirrorJitter = sim::nanoseconds(1231);
}  // namespace

Switch::Switch(sim::Simulation& simulation, std::string name, int num_ports,
               const SwitchConfig& config)
    : sim_(simulation),
      name_(std::move(name)),
      config_(config),
      buffer_(config.buffer, num_ports),
      rng_(config.seed) {
  ports_.reserve(static_cast<std::size_t>(num_ports));
  for (int port = 0; port < num_ports; ++port) {
    ports_.emplace_back(sim_.frame_pool());
  }
  register_metrics();
}

void Switch::register_metrics() {
  obs::Telemetry* telemetry = sim_.telemetry();
  if (telemetry == nullptr) return;
  obs::MetricRegistry& reg = telemetry->metrics();
  const std::string comp = "switch." + name_;
  reg.gauge(comp, "mirror_drops",
            [this] { return static_cast<double>(mirror_drops_); });
  reg.gauge(comp, "mirror_sent",
            [this] { return static_cast<double>(mirror_sent_); });
  reg.gauge(comp, "no_route_drops",
            [this] { return static_cast<double>(no_route_drops_); });
  reg.gauge(comp, "fault_drops",
            [this] { return static_cast<double>(fault_drops_); });
  reg.gauge(comp, "buffer_shared_hwm_bytes", [this] {
    return static_cast<double>(buffer_.shared_used_hwm().count());
  });
  reg.gauge(comp, "committed_epoch", [this] {
    return static_cast<double>(rules_.committed_epoch());
  });
  reg.gauge(comp, "epochs_committed",
            [this] { return static_cast<double>(epochs_committed_); });
  for (int port = 0; port < num_ports(); ++port) {
    const std::string prefix = "port" + std::to_string(port);
    reg.gauge(comp, prefix + ".drops", [this, port] {
      return static_cast<double>(counters(port).drops.count());
    });
    reg.gauge(comp, prefix + ".queue_hwm_bytes", [this, port] {
      return static_cast<double>(buffer_.queue_hwm(port).count());
    });
  }
}

void Switch::attach_link(int port, net::Link* link) {
  assert(port >= 0 && port < num_ports());
  ports_[static_cast<std::size_t>(port)].link = link;
}

void Switch::set_port_admin(int port, bool up) {
  assert(port >= 0 && port < num_ports());
  Port& p = ports_[static_cast<std::size_t>(port)];
  if (p.admin_up == up) return;
  p.admin_up = up;
  PLANCK_TRACE_ARGS(sim_, "switch." + name_, up ? "port_up" : "port_down",
                    obs::argf("\"port\":%d", port));
  if (p.link != nullptr) p.link->set_admin_up(up);
  if (!up) flush_queue(port);
  if (port_status_handler_ && online_) port_status_handler_(port, up);
}

void Switch::set_online(bool online) {
  if (online_ == online) return;
  online_ = online;
  PLANCK_TRACE(sim_, "switch." + name_, online ? "online" : "offline");
  if (!online) {
    for (int port = 0; port < num_ports(); ++port) flush_queue(port);
    // A crash loses everything held in DRAM: the staged (uncommitted)
    // program, and the controller's soft-state 5-tuple reroutes. The MAC
    // program (the routing oracle plus any explicit entries) is config
    // restored from flash, so it survives — which is why
    // a recovered switch must be re-synced to the current epoch
    // (Controller::resync_switch) before it can carry rerouted flows.
    rules_.discard_staging();
    staged_pending_installs_ = 0;
    commit_requested_ = false;
    rules_.clear_flow_rules();
  }
}

// --- epoch'd control plane (DESIGN.md §10) --------------------------------

bool Switch::stage_epoch(std::uint64_t epoch) {
  if (!online_) return false;
  const std::uint64_t open_before = rules_.staged_epoch();
  if (!rules_.begin_staging(epoch)) return false;
  if (open_before != epoch) {
    // Freshly opened program (possibly superseding an older staged one,
    // whose in-flight installs are now no-ops — they check the staged
    // epoch before landing).
    staged_pending_installs_ = 0;
    commit_requested_ = false;
    PLANCK_TRACE_ARGS(sim_, "switch." + name_, "epoch_stage",
                      obs::argf("\"epoch\":%llu",
                                static_cast<unsigned long long>(epoch)));
  }
  return true;
}

bool Switch::stage_flow_rule(std::uint64_t epoch, const net::FlowKey& key,
                             const std::optional<RuleActions>& actions,
                             sim::Duration install_latency) {
  if (!stage_epoch(epoch)) return false;
  ++staged_pending_installs_;
  sim_.schedule(install_latency, [this, epoch, key, actions] {
    if (!online_ || rules_.staged_epoch() != epoch) return;  // program gone
    rules_.stage_flow_rule(epoch, key, actions);
    if (--staged_pending_installs_ == 0 && commit_requested_) {
      finish_commit(epoch);
    }
  });
  return true;
}

bool Switch::commit_epoch(std::uint64_t epoch) {
  if (!online_) return false;
  if (rules_.committed_epoch() == epoch) return true;  // duplicate delivery
  if (!rules_.staging() || rules_.staged_epoch() != epoch) return false;
  if (staged_pending_installs_ > 0) {
    // Commit RPC outran the TCAM writes: remember it and commit when the
    // last install lands — the program never goes live half-written.
    commit_requested_ = true;
    return true;
  }
  return finish_commit(epoch);
}

bool Switch::finish_commit(std::uint64_t epoch) {
  if (!rules_.commit_staged(epoch)) return false;
  commit_requested_ = false;
  ++epochs_committed_;
  PLANCK_TRACE_ARGS(sim_, "switch." + name_, "epoch_commit",
                    obs::argf("\"epoch\":%llu",
                              static_cast<unsigned long long>(epoch)));
  return true;
}

void Switch::flush_queue(int port) {
  Port& p = ports_[static_cast<std::size_t>(port)];
  if (ended(p)) settle(port);
  if (p.queue.empty()) return;
  // The frame on the wire has left the queue; its delivery is killed at
  // the link layer when the cable is the thing that died. The port's
  // buffer occupancy is the waiting frames plus that frame's bytes until
  // it settles.
  const sim::Bytes dropped_bytes = buffer_.queue_bytes(port) - p.wire_bytes;
  const std::uint64_t dropped = p.queue.size();
  buffer_.release(port, dropped_bytes);
  p.counters.drops += sim::packets(dropped);
  p.counters.drop_bytes += dropped_bytes;
  fault_drops_ += dropped;
  p.queue.clear();
}

void Switch::set_mirroring(int monitor_port) {
  if (monitor_port_ >= 0) {
    buffer_.set_port_cap(monitor_port_, SharedBuffer::kNoCap);
  }
  monitor_port_ = monitor_port;
  if (monitor_port_ >= 0) {
    buffer_.set_port_cap(monitor_port_, config_.monitor_port_cap);
  }
}

int Switch::route(net::Packet& packet) {
  // Highest priority: exact-match flow rules (OpenFlow reroutes).
  if (const RuleActions* flow = rules_.find_flow(packet.flow_key())) {
    if (flow->set_dst_mac) packet.dst_mac = *flow->set_dst_mac;
    if (flow->out_port) return *flow->out_port;
    // Fall through: re-resolve from the (rewritten) destination MAC.
  }
  const std::optional<RuleActions> mac = rules_.find_mac(packet.dst_mac);
  if (!mac) return -1;
  if (mac->set_dst_mac) packet.dst_mac = *mac->set_dst_mac;
  return mac->out_port.value_or(-1);
}

void Switch::handle_packet(const net::Packet& packet, int in_port) {
  if (!online_) {
    ++fault_drops_;
    return;
  }
  auto& in_counters = ports_[static_cast<std::size_t>(in_port)].counters;
  ++in_counters.rx_packets;
  in_counters.rx_bytes += packet.frame_bytes();

  net::Packet pkt = packet;
  // The mirror replica is taken before any egress MAC rewrite so the
  // collector sees the routing (possibly shadow) MAC, which is what its
  // path inference is keyed on.
  const net::MacAddress routing_mac = pkt.dst_mac;
  const int out_port = route(pkt);
  if (out_port < 0) {
    ++no_route_drops_;
    return;
  }

  if (config_.flow_accounting && pkt.proto != net::Protocol::kArp) {
    // Payload bytes, so rate-from-delta reflects goodput and pure-ACK
    // "flows" measure as ~zero (they must not look like elephants).
    auto& fc = flow_counters_[pkt.flow_key()];
    ++fc.packets;
    fc.bytes += sim::Bytes{pkt.payload};
  }

  pkt.oracle_in_port = static_cast<std::int16_t>(in_port);
  pkt.oracle_out_port = static_cast<std::int16_t>(out_port);

  if (monitor_port_ >= 0 && out_port != monitor_port_ &&
      in_port != monitor_port_) {
    net::Packet replica = pkt;
    replica.dst_mac = routing_mac;
    // Egress-pipeline arbitration jitter; see kMirrorJitter. Typed event:
    // the replica is pooled in the scheduler, the monitor port rides in
    // the aux word.
    const auto delay = static_cast<sim::Duration>(
        rng_.below(static_cast<std::uint64_t>(kMirrorJitter)));
    sim_.schedule_packet(
        delay, this, static_cast<std::uint32_t>(monitor_port_),
        [](void* self, std::uint32_t port, const net::Packet& mirrored) {
          static_cast<Switch*>(self)->enqueue(static_cast<int>(port), mirrored,
                                              /*is_mirror=*/true);
        },
        replica);
  }

  maybe_sflow_sample(pkt, in_port, out_port);
  enqueue(out_port, pkt, /*is_mirror=*/false);
}

void Switch::inject(const net::Packet& packet, int out_port) {
  assert(out_port >= 0 && out_port < num_ports());
  enqueue(out_port, packet, /*is_mirror=*/false);
}

void Switch::enqueue(int port, const net::Packet& packet, bool is_mirror) {
  Port& p = ports_[static_cast<std::size_t>(port)];
  if (p.link == nullptr) return;  // unwired port: silently discard
  if (!online_ || !p.admin_up) {
    ++fault_drops_;
    ++p.counters.drops;
    p.counters.drop_bytes += packet.frame_bytes();
    if (is_mirror) ++mirror_drops_;
    return;
  }
  if (ended(p)) settle(port);
  if (!buffer_.admit(port, packet.frame_bytes())) {
    ++p.counters.drops;
    p.counters.drop_bytes += packet.frame_bytes();
    if (is_mirror) {
      // Mirror-replica drops ARE the sampler (§3.1): far too frequent to
      // trace per event; visible as the mirror_drops gauge instead.
      ++mirror_drops_;
    } else {
      PLANCK_TRACE_ARGS(
          sim_, "switch." + name_, "tail_drop",
          obs::argf("\"port\":%d,\"queue_bytes\":%lld", port,
                    static_cast<long long>(buffer_.queue_bytes(port).count())));
    }
    return;
  }
  if (is_mirror) ++mirror_sent_;
  if (p.wire_bytes > sim::Bytes{0}) {
    p.queue.push_back(packet);  // waits for the busy wire
  } else {
    start_tx(port, packet);  // an idle wire takes it at once
  }
  maybe_schedule_end(port);
}

void Switch::start_tx(int port, const net::Packet& frame) {
  Port& p = ports_[static_cast<std::size_t>(port)];
  p.wire_end = p.link->transmit(frame);
  p.wire_bytes = frame.frame_bytes();
}

void Switch::maybe_schedule_end(int port) {
  Port& p = ports_[static_cast<std::size_t>(port)];
  // Nothing waits on a lone frame inside the port's reserve: it holds no
  // shared-pool bytes, so releasing them late moves no DT threshold, and
  // the port's next admission settles it first (DESIGN.md section 6).
  if (p.end_scheduled ||
      (p.queue.empty() &&
       buffer_.queue_bytes(port) <= config_.buffer.per_port_reserve)) {
    return;
  }
  p.end_scheduled = true;
  sim_.schedule_call_at(p.wire_end, this, static_cast<std::uint32_t>(port),
                        [](void* self, std::uint32_t which) {
                          static_cast<Switch*>(self)->finish_tx(
                              static_cast<int>(which));
                        });
}

void Switch::finish_tx(int port) {
  Port& p = ports_[static_cast<std::size_t>(port)];
  assert(p.wire_bytes > sim::Bytes{0});
  p.end_scheduled = false;
  settle(port);
  if (p.queue.empty()) return;
  start_tx(port, p.queue.front());
  p.queue.pop_front();
  maybe_schedule_end(port);
}

void Switch::settle(int port) {
  Port& p = ports_[static_cast<std::size_t>(port)];
  ++p.counters.tx_packets;
  p.counters.tx_bytes += p.wire_bytes;
  buffer_.release(port, p.wire_bytes);
  p.wire_bytes = sim::Bytes{0};
}

void Switch::maybe_sflow_sample(const net::Packet& packet, int in_port,
                                int out_port) {
  if (config_.sflow_one_in_n == 0 || !sflow_handler_) return;
  if (++sflow_counter_ % config_.sflow_one_in_n != 0) return;

  // Token bucket modelling the control-plane CPU / PCI bottleneck.
  const sim::Time now = sim_.now();
  sflow_tokens_ += sim::to_seconds(now - sflow_last_refill_) *
                   config_.sflow_max_samples_per_sec;
  const double burst = 10.0;
  if (sflow_tokens_ > burst) sflow_tokens_ = burst;
  sflow_last_refill_ = now;
  if (sflow_tokens_ < 1.0) return;  // CPU saturated: sample lost
  sflow_tokens_ -= 1.0;

  net::Packet copy = packet;
  const std::uint32_t rate = config_.sflow_one_in_n;
  auto handler = sflow_handler_;
  sim_.schedule(config_.sflow_control_delay,
                [handler, copy, in_port, out_port, rate] {
                  handler(copy, in_port, out_port, rate);
                });
}

}  // namespace planck::switchsim
