#pragma once

/// PLANCK_TRACE / PLANCK_METRIC — the hot-path face of the telemetry
/// plane (DESIGN.md §9).
///
/// The macros are cheap: a null check on the installed Telemetry, plus a
/// tracing flag check for PLANCK_TRACE*, and argument expressions are
/// evaluated only after both checks pass. bench_micro_eventqueue A/Bs the
/// uninstalled configuration against the seed path.
///
/// All trace timestamps come from the Simulation the macro is handed —
/// never a wall clock; planck-lint's trace-wall-clock check enforces this
/// at every call site.

#include "obs/telemetry.hpp"

/// Record an instant event on `component`'s trace track at sim-now, in
/// the shard of the simulation's partition. `sim_expr` is anything with
/// .telemetry(), .now() and .partition_id() (a Simulation).
#define PLANCK_TRACE(sim_expr, component, name)                            \
  do {                                                                     \
    ::planck::obs::Telemetry* planck_obs_tel_ = (sim_expr).telemetry();    \
    if (planck_obs_tel_ != nullptr && planck_obs_tel_->tracing()) {        \
      planck_obs_tel_->tracer().instant((sim_expr).partition_id(),         \
                                        (sim_expr).now(), (component),     \
                                        (name));                           \
    }                                                                      \
  } while (0)

/// Like PLANCK_TRACE with a JSON args payload; `args_expr` (typically an
/// obs::argf(...) call) is evaluated only when tracing is live.
#define PLANCK_TRACE_ARGS(sim_expr, component, name, args_expr)            \
  do {                                                                     \
    ::planck::obs::Telemetry* planck_obs_tel_ = (sim_expr).telemetry();    \
    if (planck_obs_tel_ != nullptr && planck_obs_tel_->tracing()) {        \
      planck_obs_tel_->tracer().instant((sim_expr).partition_id(),         \
                                        (sim_expr).now(), (component),     \
                                        (name), (args_expr));              \
    }                                                                      \
  } while (0)

/// Append one point of a counter track (rendered as a stepped series).
#define PLANCK_TRACE_COUNTER(sim_expr, component, name, value_expr)        \
  do {                                                                     \
    ::planck::obs::Telemetry* planck_obs_tel_ = (sim_expr).telemetry();    \
    if (planck_obs_tel_ != nullptr && planck_obs_tel_->tracing()) {        \
      planck_obs_tel_->tracer().counter((sim_expr).partition_id(),         \
                                        (sim_expr).now(), (component),     \
                                        (name),                            \
                                        static_cast<double>(value_expr));  \
    }                                                                      \
  } while (0)

/// Apply `op` (e.g. add(1), observe(x), set(v)) to a registry metric held
/// through a possibly-null pointer. `handle` is evaluated once.
#define PLANCK_METRIC(handle, op)                \
  do {                                           \
    auto* planck_obs_metric_ = (handle);         \
    if (planck_obs_metric_ != nullptr) {         \
      planck_obs_metric_->op;                    \
    }                                            \
  } while (0)
