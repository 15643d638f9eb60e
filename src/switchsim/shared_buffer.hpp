#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/contract.hpp"
#include "sim/units.hpp"

namespace planck::switchsim {

/// Configuration of a switch's packet memory, modelled on the Broadcom
/// Trident ASIC the paper describes (§5.1): 9 MB shared across 64 ports, a
/// small dedicated reservation per port, and Dynamic Threshold (DT)
/// admission for the shared pool. With alpha = 0.8 a single congested port
/// stabilizes at alpha/(1+alpha) * pool ~= 4 MB, the paper's figure.
struct BufferConfig {
  sim::Bytes total_bytes = sim::mebibytes(9);
  double alpha = 0.8;
  /// Dedicated bytes per port, usable only by that port.
  sim::Bytes per_port_reserve = sim::bytes(2 * 1518);
};

/// Shared-memory buffer accounting with Dynamic Threshold admission.
///
/// Each port's queue uses its dedicated reservation first; beyond that it
/// draws from the shared pool, where DT admits a packet only while the
/// port's shared usage is below alpha * (free shared memory). Ports may
/// additionally carry a hard cap (set_port_cap) — the paper infers the IBM
/// G8264 gives mirror ports a fixed allocation (Figure 9), and the
/// "minbuffer" configuration of Table 1 shrinks that cap to a few frames.
///
/// Conservation contracts (PLANCK_CONTRACT, Debug/ASan/fuzz builds): after
/// every mutation, the sum of per-port shared occupancy equals the pool's
/// used counter, the pool never exceeds its physical size, and no port
/// exceeds its hard cap. The tools/fuzz/fuzz_dt_buffer harness drives
/// random admit/release/reconfigure sequences against these as its oracle.
class SharedBuffer {
 public:
  SharedBuffer(const BufferConfig& config, int num_ports)
      : config_(config),
        queue_bytes_(static_cast<std::size_t>(num_ports)),
        queue_hwm_(static_cast<std::size_t>(num_ports)),
        port_cap_(static_cast<std::size_t>(num_ports), kNoCap) {
    shared_total_ =
        config.total_bytes -
        config.per_port_reserve * static_cast<std::int64_t>(num_ports);
    assert(shared_total_ >= sim::Bytes{0});
  }

  /// Sentinel for "no hard cap on this port".
  static constexpr sim::Bytes kNoCap = sim::Bytes{-1};

  /// Attempts to admit `size` to `port`'s queue; true and accounted on
  /// success, false (caller drops the packet) otherwise.
  bool admit(int port, sim::Bytes size) {
    auto& q = queue_bytes_[static_cast<std::size_t>(port)];
    const sim::Bytes cap = port_cap_[static_cast<std::size_t>(port)];
    if (cap >= sim::Bytes{0} && q + size > cap) return false;

    const sim::Bytes old_shared = shared_part(q);
    const sim::Bytes new_shared = shared_part(q + size);
    const sim::Bytes delta = new_shared - old_shared;
    if (delta > sim::Bytes{0}) {
      const sim::Bytes shared_free = shared_total_ - shared_used_;
      // DT drop condition: the port's shared occupancy has reached
      // alpha * free. Also never exceed physical memory.
      if (static_cast<double>(old_shared.count()) >=
              config_.alpha * static_cast<double>(shared_free.count()) ||
          delta > shared_free) {
        return false;
      }
      PLANCK_CONTRACT(static_cast<double>(old_shared.count()) <
                          config_.alpha *
                              static_cast<double>(shared_free.count()),
                      "DT admits only below the alpha threshold");
      shared_used_ += delta;
      if (shared_used_ > shared_used_hwm_) shared_used_hwm_ = shared_used_;
    }
    q += size;
    auto& hwm = queue_hwm_[static_cast<std::size_t>(port)];
    if (q > hwm) hwm = q;
    check_conservation();
    return true;
  }

  /// Returns `size` previously admitted to `port`.
  void release(int port, sim::Bytes size) {
    auto& q = queue_bytes_[static_cast<std::size_t>(port)];
    assert(q >= size);
    const sim::Bytes delta = shared_part(q) - shared_part(q - size);
    shared_used_ -= delta;
    assert(shared_used_ >= sim::Bytes{0});
    q -= size;
    check_conservation();
  }

  sim::Bytes queue_bytes(int port) const {
    return queue_bytes_[static_cast<std::size_t>(port)];
  }
  sim::Bytes shared_used() const { return shared_used_; }
  sim::Bytes shared_total() const { return shared_total_; }
  /// High-water marks since construction (telemetry, DESIGN.md §9): peak
  /// shared-pool occupancy and peak per-port queue depth.
  sim::Bytes shared_used_hwm() const { return shared_used_hwm_; }
  sim::Bytes queue_hwm(int port) const {
    return queue_hwm_[static_cast<std::size_t>(port)];
  }
  /// Total occupancy across every port (reserved + shared parts).
  sim::Bytes total_used() const {
    sim::Bytes total{0};
    for (const sim::Bytes q : queue_bytes_) total += q;
    return total;
  }

  /// Hard cap on a port's total queue depth; kNoCap removes the cap.
  void set_port_cap(int port, sim::Bytes cap) {
    port_cap_[static_cast<std::size_t>(port)] = cap;
    check_conservation();
  }
  sim::Bytes port_cap(int port) const {
    return port_cap_[static_cast<std::size_t>(port)];
  }

  const BufferConfig& config() const { return config_; }

  /// DT-conservation contract body, run after every mutation in contract
  /// builds. O(ports); public so the fuzz oracle can invoke it directly.
  void check_conservation() const {
#if PLANCK_CONTRACTS_ENABLED
    sim::Bytes shared_sum{0};
    sim::Bytes total{0};
    for (const sim::Bytes q : queue_bytes_) {
      PLANCK_CONTRACT(q >= sim::Bytes{0}, "port occupancy is non-negative");
      shared_sum += shared_part(q);
      total += q;
    }
    PLANCK_CONTRACT(shared_sum == shared_used_,
                    "sum of per-port shared occupancy == pool used");
    PLANCK_CONTRACT(shared_used_ <= shared_total_,
                    "shared pool never exceeds its physical size");
    PLANCK_CONTRACT(total <= config_.total_bytes,
                    "total occupancy never exceeds physical memory");
#endif
  }

 private:
  // Single-writer by design: buffer accounting is mutated only by
  // the owning switch's enqueue/dequeue path.
  sim::Bytes shared_part(sim::Bytes q) const {
    const sim::Bytes over = q - config_.per_port_reserve;
    return over > sim::Bytes{0} ? over : sim::Bytes{0};
  }

  BufferConfig config_;
  sim::Bytes shared_total_{0};
  sim::Bytes shared_used_{0};
  sim::Bytes shared_used_hwm_{0};
  std::vector<sim::Bytes> queue_bytes_;
  std::vector<sim::Bytes> queue_hwm_;
  std::vector<sim::Bytes> port_cap_;
};

}  // namespace planck::switchsim
