// One aggregate for every environment knob the advisor stack's subsystems
// are built from.
//
// Before the service layer, the option structs each read the environment at
// their own construction time (RuntimeOptions/CompileCacheOptions/
// GuardConfig via FromEnv defaults). A long-running process could therefore
// observe *different* env values per subsystem depending on construction
// order. AdvisorOptions fixes the inconsistency: FromEnv() snapshots every
// knob exactly once, and the AdvisorService threads the captured values
// explicitly into each subsystem it builds — nothing downstream of the
// service re-reads the environment.
//
// Knob map (reader -> field):
//   QO_THREADS                 -> runtime.num_threads
//   QO_COMPILE_CACHE_CAPACITY / _SHARDS -> compile_cache.{capacity,num_shards}
//   QO_GUARD + QO_FAULT_*      -> guard.{enabled,faults}
//   QO_SERVICE_RETRAIN_MS      -> retrain_period_ms
// The observability knobs (QO_METRICS, QO_OBS_*, QO_TRACE, QO_SIMD) are
// observational, not service configuration: src/obs/ and the kernel
// dispatch read each of them once, in one place.
#ifndef QO_SERVICE_ADVISOR_OPTIONS_H_
#define QO_SERVICE_ADVISOR_OPTIONS_H_

#include "cache/compilation_cache.h"
#include "guard/guardrail.h"
#include "runtime/runtime.h"

namespace qo::service {

/// Everything an AdvisorService (and the subsystems it constructs) is
/// allowed to know about its environment. Defaults are the no-env defaults
/// of each subsystem — constructing AdvisorOptions{} performs no env reads.
struct AdvisorOptions {
  runtime::RuntimeOptions runtime;
  cache::CompileCacheOptions compile_cache;
  /// Guardrails + fault injection. Default-inert (enabled=false, no fault
  /// probabilities), matching GuardConfig{}.
  guard::GuardConfig guard;
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
