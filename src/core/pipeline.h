// The end-to-end QO-Advisor daily pipeline (paper Fig. 1 and Sec. 2.5):
//
//   workload view -> Feature Generation -> Recommendation (contextual
//   bandit + recompilation) -> Flighting -> Validation -> Hint Generation
//   -> SIS upload.
//
// One pipeline instance persists across days: the Personalizer keeps
// learning (incrementally — each retrain consumes only the examples
// rewarded since the last one, and its event log is bounded by
// PersonalizerConfig::retention_window, so memory stays constant over an
// unbounded run), the validation model retrains as flight telemetry
// accumulates, and hints land in the SIS where the optimizer picks them up
// for the next occurrence of each template.
#ifndef QO_CORE_PIPELINE_H_
#define QO_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "bandit/personalizer.h"
#include "core/feature_gen.h"
#include "core/hint_gen.h"
#include "core/recommend.h"
#include "core/validation.h"
#include "flighting/flighting.h"
#include "guard/guardrail.h"
#include "runtime/runtime.h"
#include "sis/sis.h"
#include "telemetry/workload_view.h"

namespace qo::advisor {

struct PipelineConfig {
  RecommenderConfig recommender;
  ValidationModelConfig validation;
  flight::FlightingConfig flighting;
  bandit::PersonalizerConfig personalizer;
  /// Flight at most this many jobs per day (budget guard, Sec. 4.3).
  size_t max_flights_per_day = 48;
  /// One representative job per template is flighted (Sec. 4.3).
  bool one_flight_per_template = true;
  /// Consider only recurring jobs (the paper's current scope, Sec. 2.1).
  bool recurring_only = true;
  /// Parallel runtime for the span/recompilation and flighting fan-outs.
  /// Deterministic: any num_threads produces byte-identical day reports,
  /// SIS uploads and learning state.
  runtime::RuntimeOptions runtime;
  /// Guardrails + chaos fault injection. The default is inert and the
  /// pipeline behaves bit-for-bit as without the guard layer; QO_GUARD and
  /// the QO_FAULT_* knobs arrive through service::AdvisorOptions.
  guard::GuardConfig guard;
};

/// Per-day pipeline telemetry.
struct PipelineDayReport {
  int day = 0;
  FeatureGenStats feature_gen;
  RecommenderStats recommender;
  size_t flight_requests = 0;
  size_t flights_success = 0;
  size_t flights_failure = 0;
  size_t flights_timeout = 0;  ///< real per-job flighting timeouts
  size_t flights_filtered = 0;
  size_t flights_budget_rejected = 0;  ///< never admitted: budget ran out
  size_t validated = 0;
  size_t hints_uploaded = 0;
  double flight_budget_used_hours = 0.0;
  bool validation_model_trained = false;
  // Guardrail activity (zero when the guard layer is disabled).
  size_t hints_reverted = 0;      ///< watchdog auto-reverts this day
  size_t quarantine_blocked = 0;  ///< candidates blocked by quarantine
  size_t breaker_blocked = 0;     ///< candidates blocked by open breakers
  size_t flight_retries = 0;
  size_t flights_recovered = 0;   ///< retries that turned into success
  size_t telemetry_rows_dropped = 0;
  size_t faults_injected = 0;     ///< injected faults the day acted on
  bool hint_file_rejected = false;
  bool steering_disabled = false;  ///< global breaker was open today

  /// Canonical one-line rendering of every counter — what the chaos
  /// determinism tests compare byte-for-byte across thread counts.
  std::string ToString() const;
};

/// The daily-pipeline orchestrator.
class QoAdvisorPipeline {
 public:
  /// When `runtime` is non-null the pipeline borrows it (sharing one pool
  /// with the caller, e.g. the experiment harness) and ignores
  /// config.runtime; otherwise it owns a pool built from config.runtime.
  /// Likewise `personalizer`: non-null borrows the caller's learner (the
  /// advisor service passes its tenant's, so serving and pipeline traffic
  /// share one event log/model) and ignores config.personalizer; null owns
  /// one built from config.personalizer.
  QoAdvisorPipeline(const engine::ScopeEngine* engine,
                    sis::StatsInsightService* sis, PipelineConfig config = {},
                    runtime::ParallelRuntime* runtime = nullptr,
                    bandit::PersonalizerService* personalizer = nullptr);
  /// Deregisters the pipeline's registry collector.
  ~QoAdvisorPipeline();
  QoAdvisorPipeline(const QoAdvisorPipeline&) = delete;
  QoAdvisorPipeline& operator=(const QoAdvisorPipeline&) = delete;

  /// Runs the full pipeline over one day's denormalized view.
  Result<PipelineDayReport> RunDay(const telemetry::WorkloadView& view);

  bandit::PersonalizerService& personalizer() { return *personalizer_; }
  runtime::ParallelRuntime& runtime() { return *runtime_; }
  flight::FlightingService& flighting() { return flighting_; }
  ValidationModel& validation_model() { return validation_; }
  /// Guardrail state (watchdog, breakers) — read-mostly for tests/demos;
  /// the pipeline drives it on the serial path.
  guard::SteeringGuard& steering_guard() { return guard_; }
  const guard::FaultInjector& fault_injector() const { return injector_; }
  const std::vector<ValidationSample>& validation_samples() const {
    return validation_samples_;
  }
  const PipelineConfig& config() const { return config_; }

 private:
  /// Picks one representative recommendation per template (Sec. 4.3).
  std::vector<Recommendation> PickRepresentatives(
      std::vector<Recommendation> recs) const;

  const engine::ScopeEngine* engine_;
  sis::StatsInsightService* sis_;
  PipelineConfig config_;
  /// Owned pool (null when a caller's runtime is borrowed). Declared before
  /// runtime_/flighting_, which point at it.
  std::unique_ptr<runtime::ParallelRuntime> owned_runtime_;
  runtime::ParallelRuntime* runtime_;
  /// Declared before flighting_/recommender_, which hold a pointer to it.
  guard::FaultInjector injector_;
  guard::SteeringGuard guard_;
  /// Owned learner (null when a caller's personalizer is borrowed).
  std::unique_ptr<bandit::PersonalizerService> owned_personalizer_;
  bandit::PersonalizerService* personalizer_;
  flight::FlightingService flighting_;
  Recommender recommender_;
  ValidationModel validation_;
  std::vector<ValidationSample> validation_samples_;
  /// Cumulative across RunDay calls, exported as "pipeline.*" series by the
  /// registry collector below (the learner, flighting-budget and SIS state
  /// ride along in the same callback).
  struct Cumulative {
    uint64_t days = 0;
    uint64_t flight_requests = 0;
    uint64_t validated = 0;
    uint64_t hints_uploaded = 0;
  } cum_;
  int collector_id_ = -1;
};

}  // namespace qo::advisor

#endif  // QO_CORE_PIPELINE_H_
