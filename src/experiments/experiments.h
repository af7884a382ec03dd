// Reusable experiment harnesses for every table and figure in the paper's
// evaluation (Sec. 5). Each function returns structured results; the bench
// binaries print them as the rows/series the paper reports, and tests assert
// the qualitative shapes.
#ifndef QO_EXPERIMENTS_EXPERIMENTS_H_
#define QO_EXPERIMENTS_EXPERIMENTS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "flighting/flighting.h"
#include "guard/fault_injector.h"
#include "runtime/runtime.h"
#include "sis/sis.h"
#include "telemetry/workload_view.h"
#include "workload/workload.h"

namespace qo::experiments {

struct ExperimentConfig {
  int num_templates = 90;
  int jobs_per_day = 150;
  uint64_t seed = 2022;
  int aa_runs = 10;  ///< paper Sec. 5.1 runs each job 10 times
  /// Worker threads for the experiment harness and any pipeline it drives.
  /// 0 reads QO_THREADS from the environment (the bench binaries' knob);
  /// 1 forces serial. Results are byte-identical for every value.
  int threads = 0;
  /// Chaos faults for the production-day simulation: injected steered-run
  /// compile failures (falling back to the default config, as SCOPE does)
  /// and sticky hinted regressions (the watchdog's prey). Defaults read the
  /// QO_FAULT_* knobs; with those unset this is inert.
  guard::FaultConfig faults = guard::FaultConfig::FromEnv();
};

/// Shared environment: workload + engine + helpers to execute a day and
/// build its denormalized view (optionally applying SIS hints, which is how
/// hints reach "the next occurrence of the job template").
class ExperimentEnv {
 public:
  explicit ExperimentEnv(ExperimentConfig config = {});
  /// Emits a whole-process run-report line (day -1) to QO_OBS_REPORT when
  /// that knob is set — this is how each bench binary leaves its metrics
  /// snapshot next to its figure output.
  ~ExperimentEnv();
  ExperimentEnv(const ExperimentEnv&) = delete;
  ExperimentEnv& operator=(const ExperimentEnv&) = delete;

  /// Appends one run-report line for `day` (or the whole process when
  /// day < 0) to QO_OBS_REPORT. No-op (returning false) when the knob is
  /// unset or metrics are disabled.
  bool EmitRunReport(int day) const;

  const ExperimentConfig& config() const { return config_; }
  const engine::ScopeEngine& engine() const { return engine_; }
  const workload::WorkloadDriver& driver() const { return driver_; }
  /// The harness's parallel runtime (internally synchronized, hence usable
  /// through a const env). Null is never returned.
  runtime::ParallelRuntime* runtime() const { return &runtime_; }
  /// Options to propagate into a pipeline config so RunDay shares the
  /// harness's thread count.
  const runtime::RuntimeOptions& runtime_options() const {
    return runtime_.options();
  }

  /// Executes every job of `day` (under SIS hints when provided) and builds
  /// the view the offline pipeline ingests. Job executions fan out across
  /// the runtime sharded by template; rows commit in job order.
  telemetry::WorkloadView BuildDayView(
      int day, const sis::StatsInsightService* sis = nullptr) const;

  const guard::FaultInjector& fault_injector() const { return injector_; }
  /// Steered production runs that fell back to the default configuration
  /// because of an injected compile failure (cumulative across days).
  uint64_t steered_fallbacks() const { return steered_fallbacks_; }
  /// Steered production runs whose metrics were inflated by a sticky
  /// injected hint regression (cumulative across days).
  uint64_t regressions_injected() const { return regressions_injected_; }

 private:
  ExperimentConfig config_;
  workload::WorkloadDriver driver_;
  engine::ScopeEngine engine_;
  mutable runtime::ParallelRuntime runtime_;
  guard::FaultInjector injector_;
  /// Atomic: bumped from the parallel run lambda, but the total is
  /// deterministic because every injection decision is pure.
  mutable std::atomic<uint64_t> steered_fallbacks_{0};
  /// Bumped only at the ordered commit (calling thread).
  mutable uint64_t regressions_injected_ = 0;
};

// ---------------------------------------------------------------------------
// Fig. 2 / Fig. 4: recurring-job stability. Improvements found by an A/B in
// week0 cannot always be repeated on the same recurring job in week1.
// ---------------------------------------------------------------------------
struct StabilityResult {
  /// (week0 delta, week1 delta) per job; delta = new/old - 1.
  std::vector<std::pair<double, double>> week0_week1;
  /// Fraction of week0-improving jobs that regress (delta > 0) in week1.
  double regress_fraction = 0.0;
};

enum class Metric { kLatency, kPnHours };

StabilityResult RunRecurringStability(const ExperimentEnv& env, Metric metric,
                                      int week0_day = 0, int week1_day = 7);

// ---------------------------------------------------------------------------
// Fig. 3 / Fig. 5: A/A variance of latency / PNhours over 10 runs.
// ---------------------------------------------------------------------------
struct VarianceResult {
  /// (normalized execution time, coefficient of variation) per job.
  std::vector<std::pair<double, double>> time_vs_cv;
  double fraction_above_5pct = 0.0;
};

VarianceResult RunAAVariance(const ExperimentEnv& env, Metric metric,
                             int day = 0);

// ---------------------------------------------------------------------------
// Fig. 6: estimated-cost delta vs latency delta over ~5 days of jobs with
// cost-improving rule flips.
// ---------------------------------------------------------------------------
struct CostLatencyResult {
  std::vector<std::pair<double, double>> cost_vs_latency;
  double correlation = 0.0;
  /// Among jobs whose estimated cost improved, fraction with latency
  /// regression (paper: over 40%).
  double improved_cost_latency_regress_fraction = 0.0;
};

CostLatencyResult RunCostVsLatency(const ExperimentEnv& env, int days = 5);

// ---------------------------------------------------------------------------
// Fig. 7 / Fig. 8: DataRead / DataWritten delta vs PNhours delta, with the
// paper's one-dimensional polynomial trend line.
// ---------------------------------------------------------------------------
struct IoPnResult {
  std::vector<std::pair<double, double>> io_vs_pn;
  LinearFit trend;
  double correlation = 0.0;
};

enum class IoMetric { kDataRead, kDataWritten };

IoPnResult RunIoVsPn(const ExperimentEnv& env, IoMetric metric, int days = 4);

// ---------------------------------------------------------------------------
// Fig. 9: validation model accuracy — train on two weeks of flighting data,
// evaluate on a held-out day.
// ---------------------------------------------------------------------------
struct ValidationAccuracyResult {
  std::vector<std::pair<double, double>> predicted_vs_actual;
  size_t test_jobs = 0;
  size_t accepted = 0;  ///< predicted delta below the threshold
  /// Of the accepted jobs: fraction with actual delta below the threshold
  /// (paper: 85%) and below zero (paper: 91%).
  double frac_actual_below_threshold = 0.0;
  double frac_actual_below_zero = 0.0;
  double model_r2 = 0.0;
};

ValidationAccuracyResult RunValidationAccuracy(const ExperimentEnv& env,
                                               int train_days = 14,
                                               double threshold = -0.1,
                                               int test_days = 3);

// ---------------------------------------------------------------------------
// Table 2 + Figs. 10/11/12: end-to-end pipeline impact. Train the pipeline
// for `train_days`, then compare hinted vs default plans on the evaluation
// day's matching jobs.
// ---------------------------------------------------------------------------
struct AggregateImpactResult {
  int matched_jobs = 0;
  size_t active_hints = 0;
  /// Total-percentage reductions (negative = saving), as in Table 2.
  double pn_hours_reduction = 0.0;
  double latency_reduction = 0.0;
  double vertices_reduction = 0.0;
  /// Per-job deltas, sorted ascending (the drill-down figures).
  std::vector<double> pn_deltas;
  std::vector<double> latency_deltas;
  std::vector<double> vertices_deltas;
};

AggregateImpactResult RunAggregateImpact(const ExperimentEnv& env,
                                         int train_days = 24,
                                         int eval_days = 5);

// ---------------------------------------------------------------------------
// Table 3: biased (contextual bandit) vs uniform-random rule flips.
// ---------------------------------------------------------------------------
struct FlipOutcomeCounts {
  size_t lower_cost = 0;
  size_t equal_cost = 0;
  size_t higher_cost = 0;
  size_t recompile_failures = 0;
  double total_est_cost = 0.0;  ///< summed est cost of the chosen plans

  size_t total() const {
    return lower_cost + equal_cost + higher_cost + recompile_failures;
  }
};

struct RandomVsCbResult {
  FlipOutcomeCounts random;
  FlipOutcomeCounts cb;
  double default_total_est_cost = 0.0;
  size_t jobs_with_span = 0;
  size_t jobs_total = 0;
};

RandomVsCbResult RunRandomVsCb(const ExperimentEnv& env,
                               int cb_train_days = 18, int eval_day = 18);

// ---------------------------------------------------------------------------
// Sec. 5.2 ablation: disabling the estimated-cost filters floods flighting.
// ---------------------------------------------------------------------------
struct CostFilterAblationResult {
  size_t flights_requested_with_filter = 0;
  size_t flights_requested_without_filter = 0;
  double budget_hours_with_filter = 0.0;
  double budget_hours_without_filter = 0.0;
  size_t timeouts_without_filter = 0;
  size_t timeouts_with_filter = 0;
};

CostFilterAblationResult RunCostFilterAblation(const ExperimentEnv& env,
                                               int day = 0);

}  // namespace qo::experiments

#endif  // QO_EXPERIMENTS_EXPERIMENTS_H_
