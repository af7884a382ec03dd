// The SCOPE Flighting Service simulator: pre-production A/B (and A/A) runs
// under a constrained budget (paper Secs. 2.1 and 4.3).
//
// Jobs are flighted through a fixed-size queue; each flight re-runs the job
// with the default and the candidate configuration and reports metric
// deltas. The service enforces:
//   (1) a per-job flighting timeout,
//   (2) a total machine-hour budget,
//   (3) the four paper outcomes: failure (e.g. expired inputs), timeout,
//       filtered (unsupported job classes), success.
//
// FlightBatch has an asynchronous path: when constructed with a
// ParallelRuntime, the A/B flights fan out across the pool (sharded by
// template id) while budget admission happens at an ordered commit on the
// calling thread. Each flight's environmental draws come from a per-flight
// RNG derived from (config.seed, run_salt), so a flight is a pure function
// of its request — parallel batches are byte-identical to serial ones.
//
// Telemetry: committed outcomes are registry counters ("flight.success",
// ".failure", ".timeout_per_job", ".budget_rejected", ".filtered",
// ".fault_injected"), plus "flight.timeout" (per-job timeouts and budget
// rejections together), "flight.batches" and "flight.aa_runs". The
// pipeline's collector exports the budget.
#ifndef QO_FLIGHTING_FLIGHTING_H_
#define QO_FLIGHTING_FLIGHTING_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/engine.h"
#include "exec/metrics.h"
#include "guard/fault_injector.h"
#include "optimizer/rules.h"
#include "runtime/budget_gate.h"
#include "runtime/runtime.h"
#include "workload/template_gen.h"

namespace qo::flight {

enum class FlightOutcome {
  kSuccess,
  kFailure,         ///< job information or input data expired
  kTimeout,         ///< exceeded the per-job flighting time cap
  kFiltered,        ///< job class not supported by the service
  kBudgetRejected,  ///< never admitted: the machine-hour budget ran out
};

const char* FlightOutcomeToString(FlightOutcome o);

/// One flighting request: re-run `job` under baseline vs candidate configs.
struct FlightRequest {
  workload::JobInstance job;
  opt::RuleConfig baseline = opt::RuleConfig::Default();
  opt::RuleConfig candidate = opt::RuleConfig::Default();
  /// Estimated-cost delta from recompilation; used for priority ordering
  /// (lower first) by the pipeline.
  double est_cost_delta = 0.0;
};

/// Result of one A/B flight.
struct FlightResult {
  FlightOutcome outcome = FlightOutcome::kFailure;
  std::string job_id;
  exec::JobMetrics baseline;
  exec::JobMetrics candidate;
  // Relative deltas (candidate/baseline - 1); valid only on success.
  double pn_hours_delta = 0.0;
  double latency_delta = 0.0;
  double vertices_delta = 0.0;
  double data_read_delta = 0.0;
  double data_written_delta = 0.0;
  /// Machine-hours consumed by this flight (both arms).
  double machine_hours = 0.0;
  /// True when the outcome was forced by the fault injector (chaos runs).
  bool fault_injected = false;
};

struct FlightingConfig {
  size_t queue_capacity = 64;     ///< max requests accepted per batch
  double per_job_timeout_hours = 24.0;
  double total_budget_machine_hours = 2000.0;
  double failure_prob = 0.04;
  double filtered_prob = 0.03;
  uint64_t seed = 31;
};

/// The flighting service. Holds a reference to the engine (pre-production
/// cluster); each batch is processed in priority order until the machine-
/// hour budget runs out.
class FlightingService {
 public:
  /// `runtime` may be null (serial). The service does not own it.
  /// `injector` (not owned, may be null) adds deterministic flight-level
  /// faults: environment failures before any machine time is spent, and
  /// per-job timeouts after the arms ran. Decisions are pure per
  /// (job, run_salt), so chaos batches stay byte-identical at any thread
  /// count — and a retry under a fresh salt redraws its fate.
  FlightingService(const engine::ScopeEngine* engine,
                   FlightingConfig config = {},
                   runtime::ParallelRuntime* runtime = nullptr,
                   const guard::FaultInjector* injector = nullptr);

  /// Flights one request now (ignores the queue; still consumes budget).
  /// ResourceExhausted when the budget is already spent. Legacy admission:
  /// the pre-check may let the final flight overshoot the budget cap.
  Result<FlightResult> FlightOne(const FlightRequest& request,
                                 uint64_t run_salt);

  /// Accepts up to queue_capacity requests, orders them by estimated-cost
  /// delta (most promising first, Sec. 4.3), and flights until the machine-
  /// hour budget runs out; requests that never ran report kBudgetRejected.
  /// Flights
  /// fan out across the runtime's pool when one is attached; admission is
  /// decided at an ordered commit, so results are byte-identical for any
  /// thread count and committed spend never exceeds the budget.
  std::vector<FlightResult> FlightBatch(std::vector<FlightRequest> requests,
                                        uint64_t run_salt);

  /// Runs the same configuration `runs` times (A/A testing, Sec. 5.1).
  Result<std::vector<exec::JobMetrics>> RunAA(
      const workload::JobInstance& job, const opt::RuleConfig& config,
      int runs, uint64_t run_salt);

  double budget_used_hours() const { return gate_.committed(); }
  double budget_remaining_hours() const {
    return config_.total_budget_machine_hours - gate_.committed();
  }
  void ResetBudget() { gate_.Reset(); }

  const FlightingConfig& config() const { return config_; }
  const runtime::BudgetGate& budget_gate() const { return gate_; }

 private:
  /// The pure flight computation: environmental draws + both engine arms,
  /// no budget interaction. Thread-safety: const and deterministic per
  /// (request, run_salt) — safe to call concurrently.
  FlightResult RunFlight(const FlightRequest& request,
                         uint64_t run_salt) const;

  /// Counts a committed outcome. Called at the serial commit points
  /// (FlightOne / the batch commit), so speculative flights refunded by
  /// budget admission are never counted.
  static void CountOutcome(FlightOutcome outcome, bool fault_injected = false);

  const engine::ScopeEngine* engine_;
  FlightingConfig config_;
  runtime::ParallelRuntime* runtime_;
  const guard::FaultInjector* injector_;
  runtime::BudgetGate gate_;
};

}  // namespace qo::flight

#endif  // QO_FLIGHTING_FLIGHTING_H_
