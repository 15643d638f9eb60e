#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace planck::obs {

/// Builds a JSON-object body for a trace event's "args" field, e.g.
/// argf("\"port\":%d,\"bytes\":%lld", port, bytes). The caller supplies
/// valid JSON key/value syntax; the result is spliced verbatim.
std::string argf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Sim-time-stamped event recorder that serializes to the Chrome trace
/// event format (load the file at chrome://tracing or ui.perfetto.dev).
///
/// Every timestamp is a sim::Time handed in by the caller — the tracer
/// never consults a clock. Events go to one shard per partition
/// (Simulation::partition_id(), 0 when unsharded), in that partition's
/// execution order, and each shard is written only by the thread running
/// its partition. Export merges the shards in (sim time, partition id,
/// emission order), so a sharded run serializes byte-identically at any
/// thread count; with one shard the merge is plain emission order.
/// Components map to trace "threads": tids are assigned in first-use
/// order over the merged stream, each with a thread_name metadata record.
///
/// Event kinds: "I" (instant, a point occurrence like a drop or reroute)
/// and "C" (counter, a stepped time series).
///
/// Rule: one Telemetry per engine or plain Simulation; register before
/// the run; export after it. add_shard() is registration: it runs at
/// setup (Simulation::set_telemetry), and an emission never grows the
/// shard list.
class Tracer {
 public:
  /// Makes sure `partition` has a shard. Setup only.
  void add_shard(int partition);

  /// A point event, e.g. a drop, a congestion detection, a reroute.
  void instant(int partition, sim::Time t, std::string_view component,
               std::string_view name, std::string args = std::string());

  /// One point of a stepped time series rendered as a counter track.
  void counter(int partition, sim::Time t, std::string_view component,
               std::string_view name, double value);

  std::size_t size() const;

  /// Full Chrome trace JSON document. Deterministic: depends only on the
  /// recorded events, which depend only on sim execution order.
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  struct Event {
    char ph;                // 'I' or 'C'
    sim::Time ts;           // nanoseconds of sim time
    std::size_t component;  // index into the shard's components
    std::string name;
    std::string args;  // JSON object body, may be empty
  };
  struct Shard {
    std::vector<Event> events;
    std::vector<std::string> components;
  };

  void emit(int partition, char ph, sim::Time t, std::string_view component,
            std::string_view name, std::string args);

  std::vector<Shard> shards_;  // index == partition id
};

}  // namespace planck::obs
