// One aggregate for every environment knob the advisor stack reads.
//
// Before the service layer, the option structs each read the environment at
// their own construction time (RuntimeOptions/CompileCacheOptions/
// GuardConfig via FromEnv defaults, plus the QO_METRICS/QO_OBS_*/QO_TRACE
// observability knobs cached on first use). A long-running process could therefore observe *different* env
// values per subsystem depending on construction order. AdvisorOptions
// fixes the inconsistency: FromEnv() snapshots every knob exactly once, and
// the AdvisorService threads the captured values explicitly into each
// subsystem it builds — nothing downstream of the service re-reads the
// environment.
//
// Knob map (legacy reader -> field):
//   QO_THREADS                 -> runtime.num_threads
//   QO_COMPILE_CACHE_CAPACITY / _SHARDS -> compile_cache.{capacities,shards}
//   QO_GUARD + QO_FAULT_*      -> guard.{enabled,faults}
//   QO_METRICS                 -> obs.metrics
//   QO_OBS_REPORT / QO_OBS_LABEL / QO_TRACE -> obs.{report_path,label,trace_path}
//   QO_OBS_SAMPLE              -> obs.span_sample_every
//   QO_SIMD                    -> obs.simd (captured for run reports only;
//                                 kernel dispatch reads the env itself once)
//   QO_SERVICE_RETRAIN_MS      -> retrain_period_ms
#ifndef QO_SERVICE_ADVISOR_OPTIONS_H_
#define QO_SERVICE_ADVISOR_OPTIONS_H_

#include <string>

#include "cache/compilation_cache.h"
#include "guard/guardrail.h"
#include "runtime/runtime.h"

namespace qo::service {

/// Observability knobs as captured values (the legacy readers cache these
/// process-wide on first use; the service records what was captured so run
/// reports and load benches can be wired without re-reading the env).
struct ObsOptions {
  /// QO_METRICS != "0". Purely observational either way — outputs are
  /// byte-identical with metrics on or off.
  bool metrics = true;
  /// QO_OBS_REPORT: JSONL run-report sink path ("" = no report).
  std::string report_path;
  /// QO_OBS_LABEL: label stamped on each report line.
  std::string label;
  /// QO_TRACE: Chrome-trace sink path ("" = no trace).
  std::string trace_path;
  /// QO_OBS_SAMPLE: record every Nth span per site (1 = every span).
  /// Purely observational — sampled histograms, identical outputs.
  int span_sample_every = 1;
  /// QO_SIMD != "0": vectorized kernel dispatch active (modulo CPU
  /// support). Captured so run reports can attribute timings to the
  /// kernel table in use; the data plane is byte-identical either way.
  bool simd = true;
};

/// Everything an AdvisorService (and the subsystems it constructs) is
/// allowed to know about its environment. Defaults are the no-env defaults
/// of each subsystem — constructing AdvisorOptions{} performs no env reads.
struct AdvisorOptions {
  runtime::RuntimeOptions runtime;
  cache::CompileCacheOptions compile_cache;
  /// Guardrails + fault injection. Default-inert (enabled=false, no fault
  /// probabilities), matching GuardConfig{}.
  guard::GuardConfig guard;
  ObsOptions obs;
  /// Background retrain/ingest loop period in milliseconds; 0 keeps
  /// retraining manual (the owner calls TrainAndPublish at points of its
  /// choosing — the deterministic mode benches and tests use).
  int retrain_period_ms = 0;

  /// All-default options; reads nothing from the environment.
  static AdvisorOptions Defaults() { return {}; }

  /// Snapshots every QO_* knob above in one pass. Call once at service
  /// start and thread the result explicitly; later env mutations are
  /// invisible to a service constructed from this snapshot.
  static AdvisorOptions FromEnv();
};

}  // namespace qo::service

#endif  // QO_SERVICE_ADVISOR_OPTIONS_H_
