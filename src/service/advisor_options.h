// One aggregate for every environment knob the advisor stack's subsystems
// are built from.
//
// FromEnv() is the only reader of these knobs: every option struct below
// (and every PipelineConfig, ExperimentConfig and ScopeEngine default) is a
// plain value that reads nothing. A process snapshots the environment once
// and threads the captured values explicitly into each subsystem it builds,
// so all of them see the same configuration whatever their construction
// order.
//
// Knob map (reader -> field). Unset, empty and malformed values keep the
// defaults:
//   QO_THREADS                 -> runtime.num_threads (values < 1 keep 1)
//   QO_GUARD                   -> guard.enabled (exactly "1")
//   QO_FAULT_SEED              -> guard.faults.seed
//   QO_FAULT_COMPILE, _FLIGHT_FAILURE, _FLIGHT_TIMEOUT, _HINT_CORRUPT,
//   _REWARD_DROP, _TELEMETRY_DROP, _HINT_REGRESSION
//                              -> guard.faults.*_prob (negative and
//                                 non-finite values keep 0; above 1 clamps)
//   QO_FAULT_HINT_REGRESSION_FACTOR
//                              -> guard.faults.hint_regression_factor
//                                 (finite and >= 1)
//   QO_SERVICE_RETRAIN_MS      -> retrain_period_ms (negative -> 0)
// The observability knobs (QO_METRICS, QO_OBS_*, QO_TRACE, QO_SIMD) are
// observational, not service configuration: src/obs/ and the kernel
// dispatch read each of them once, in one place.
#ifndef QO_SERVICE_ADVISOR_OPTIONS_H_
#define QO_SERVICE_ADVISOR_OPTIONS_H_

#include "guard/guardrail.h"
#include "runtime/runtime.h"

namespace qo::service {

/// Everything an AdvisorService (and the subsystems it constructs) is
/// allowed to know about its environment. Defaults are the no-env defaults
/// of each subsystem — constructing AdvisorOptions{} performs no env reads.
struct AdvisorOptions {
  runtime::RuntimeOptions runtime;
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
