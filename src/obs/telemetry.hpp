#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace planck::obs {

/// The telemetry bundle of one engine or plain Simulation: one
/// MetricRegistry plus one Tracer, installed with set_telemetry() *before*
/// components are constructed (components register their metrics in their
/// constructors) and exported after the run. Tracing starts disabled;
/// metrics registration is always active once installed. Neither facility
/// reads a clock or perturbs scheduling, so installing telemetry — with
/// tracing on or off — leaves determinism_digest() unchanged.
class Telemetry {
 public:
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  void enable_tracing(bool on = true) { tracing_ = on; }
  bool tracing() const { return tracing_; }

 private:
  MetricRegistry metrics_;
  Tracer tracer_;
  bool tracing_ = false;
};

}  // namespace planck::obs
