#include "flighting/flighting.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "obs/span.h"

namespace qo::flight {

namespace {

/// A provisional (speculative) flight: `ran` records whether engine time was
/// actually burned — and therefore reserved against the budget gate.
struct Provisional {
  FlightResult result;
  bool ran = false;
};

FlightResult BudgetRejected(const std::string& job_id) {
  FlightResult r;
  r.outcome = FlightOutcome::kBudgetRejected;
  r.job_id = job_id;
  return r;
}

}  // namespace

const char* FlightOutcomeToString(FlightOutcome o) {
  switch (o) {
    case FlightOutcome::kSuccess:
      return "success";
    case FlightOutcome::kFailure:
      return "failure";
    case FlightOutcome::kTimeout:
      return "timeout";
    case FlightOutcome::kFiltered:
      return "filtered";
    case FlightOutcome::kBudgetRejected:
      return "budget_rejected";
  }
  return "unknown";
}

FlightingService::FlightingService(const engine::ScopeEngine* engine,
                                   FlightingConfig config,
                                   runtime::ParallelRuntime* runtime,
                                   const guard::FaultInjector* injector)
    : engine_(engine),
      config_(config),
      runtime_(runtime),
      injector_(injector),
      gate_(config.total_budget_machine_hours) {}

FlightResult FlightingService::RunFlight(const FlightRequest& request,
                                         uint64_t run_salt) const {
  QO_OBS_SPAN("flight");
  FlightResult result;
  result.job_id = request.job.job_id;

  // Per-flight RNG: environmental outcomes depend only on (seed, run_salt),
  // never on how many flights ran before — the property that lets batches
  // fan out without reordering anyone else's draws.
  Rng rng(config_.seed + 0x9e3779b97f4a7c15ULL * (run_salt + 1));

  // Environmental failures happen before any machine time is spent. The
  // injected variety redraws per (job, salt), so a guard-layer retry under a
  // fresh salt can genuinely recover from a transient failure.
  if (injector_ != nullptr && injector_->armed() &&
      injector_->ShouldInject(guard::FaultSite::kFlightFailure,
                              request.job.day,
                              HashString(request.job.job_id) ^ run_salt)) {
    result.outcome = FlightOutcome::kFailure;
    result.fault_injected = true;
    return result;
  }
  if (rng.Bernoulli(config_.failure_prob)) {
    result.outcome = FlightOutcome::kFailure;
    return result;
  }
  if (rng.Bernoulli(config_.filtered_prob)) {
    result.outcome = FlightOutcome::kFiltered;
    return result;
  }

  auto base = engine_->Run(request.job, request.baseline, run_salt * 2 + 1);
  if (!base.ok()) {
    result.outcome = FlightOutcome::kFailure;
    return result;
  }
  auto cand = engine_->Run(request.job, request.candidate, run_salt * 2 + 2);
  if (!cand.ok()) {
    result.outcome = FlightOutcome::kFailure;
    return result;
  }
  result.baseline = base->metrics;
  result.candidate = cand->metrics;
  result.machine_hours = base->metrics.pn_hours + cand->metrics.pn_hours;

  double hours = std::max(base->metrics.latency_sec,
                          cand->metrics.latency_sec) /
                 3600.0;
  if (hours > config_.per_job_timeout_hours) {
    result.outcome = FlightOutcome::kTimeout;
    return result;
  }
  // Injected timeout storms: the arms ran (machine time was burned) but the
  // flight never reported back in time.
  if (injector_ != nullptr && injector_->armed() &&
      injector_->ShouldInject(guard::FaultSite::kFlightTimeout,
                              request.job.day,
                              HashString(request.job.job_id) ^ run_salt)) {
    result.outcome = FlightOutcome::kTimeout;
    result.fault_injected = true;
    return result;
  }
  result.outcome = FlightOutcome::kSuccess;
  result.pn_hours_delta =
      exec::RelativeDelta(cand->metrics.pn_hours, base->metrics.pn_hours);
  result.latency_delta =
      exec::RelativeDelta(cand->metrics.latency_sec, base->metrics.latency_sec);
  result.vertices_delta = exec::RelativeDelta(
      static_cast<double>(cand->metrics.vertices),
      static_cast<double>(base->metrics.vertices));
  result.data_read_delta = exec::RelativeDelta(
      cand->metrics.data_read_bytes, base->metrics.data_read_bytes);
  result.data_written_delta = exec::RelativeDelta(
      cand->metrics.data_written_bytes, base->metrics.data_written_bytes);
  return result;
}

Result<FlightResult> FlightingService::FlightOne(const FlightRequest& request,
                                                 uint64_t run_salt) {
  if (gate_.Exhausted()) {
    return Status::ResourceExhausted("flighting budget exhausted");
  }
  FlightResult result = RunFlight(request, run_salt);
  CountOutcome(result.outcome, result.fault_injected);
  if (result.outcome == FlightOutcome::kFailure ||
      result.outcome == FlightOutcome::kFiltered) {
    return result;  // no machine time consumed
  }
  // Legacy admission: the pre-check above gates entry, the actual hours land
  // here — the final flight may overshoot the cap by its own size.
  gate_.Spend(result.machine_hours);
  return result;
}

std::vector<FlightResult> FlightingService::FlightBatch(
    std::vector<FlightRequest> requests, uint64_t run_salt) {
  QO_OBS_COUNT("flight.batches", 1);
  // Fixed-size queue: excess requests are dropped up front.
  if (requests.size() > config_.queue_capacity) {
    requests.resize(config_.queue_capacity);
  }
  // Most promising (lowest estimated-cost delta) first, so partial budget
  // still yields useful suggestions (Sec. 4.3).
  std::stable_sort(requests.begin(), requests.end(),
                   [](const FlightRequest& a, const FlightRequest& b) {
                     return a.est_cost_delta < b.est_cost_delta;
                   });
  const size_t n = requests.size();
  std::vector<FlightResult> results;
  results.reserve(n);

  // Worker side: speculative flights. Committed budget is monotone within a
  // batch, so once the gate is exhausted the in-order commit below is
  // certain to reject this request — skip the engine work entirely. Engine
  // hours burned speculatively are held as a reservation until settled.
  auto work = [&](size_t i) -> Provisional {
    Provisional p;
    if (gate_.Exhausted()) {
      p.result = BudgetRejected(requests[i].job.job_id);
      return p;
    }
    p.result = RunFlight(requests[i], run_salt + i);
    if (p.result.outcome == FlightOutcome::kSuccess ||
        p.result.outcome == FlightOutcome::kTimeout) {
      p.ran = true;
      gate_.Reserve(p.result.machine_hours);
    }
    return p;
  };

  // Commit side (calling thread, strict submission order): budget admission.
  // Mirrors FlightOne's ordering — budget pre-check first, then
  // environmental outcomes (which spend nothing), then strict admission of
  // the actual hours so committed spend never exceeds the cap.
  auto commit = [&](size_t i, Provisional&& p) {
    if (gate_.Exhausted()) {
      if (p.ran) gate_.Refund(p.result.machine_hours);
      results.push_back(BudgetRejected(requests[i].job.job_id));
      CountOutcome(FlightOutcome::kBudgetRejected);
      return;
    }
    if (!p.ran) {  // environmental failure or filtered: refunded up front
      CountOutcome(p.result.outcome, p.result.fault_injected);
      results.push_back(std::move(p.result));
      return;
    }
    if (!gate_.CommitReserved(p.result.machine_hours)) {
      // Admitting this flight would overspend the budget.
      results.push_back(BudgetRejected(requests[i].job.job_id));
      CountOutcome(FlightOutcome::kBudgetRejected);
      return;
    }
    CountOutcome(p.result.outcome, p.result.fault_injected);
    results.push_back(std::move(p.result));
  };

  runtime::ForEachOrdered<Provisional>(
      runtime_, n,
      [&](size_t i) {
        return static_cast<uint64_t>(requests[i].job.template_id);
      },
      // Queue priority = the request's cost delta, so dispatch against other
      // work sharing the pool also runs most-promising-first (ties fall back
      // to the sorted submission order).
      [&](size_t i) { return requests[i].est_cost_delta; }, work, commit);
  return results;
}

Result<std::vector<exec::JobMetrics>> FlightingService::RunAA(
    const workload::JobInstance& job, const opt::RuleConfig& config, int runs,
    uint64_t run_salt) {
  // Shared with the compilation cache: an A/A of a job the pipeline already
  // compiled pays no compile time at all. The batched ExecuteRuns likewise
  // shares one prepared execution profile across all A/A runs — only the
  // stochastic draws differ per run (paper Sec. 4.3).
  QO_ASSIGN_OR_RETURN(std::shared_ptr<const opt::CompilationOutput> compiled,
                      engine_->CompileShared(job, config));
  std::vector<exec::JobMetrics> metrics =
      engine_->ExecuteRuns(job, *compiled, run_salt * 1000, runs);
  for (const exec::JobMetrics& m : metrics) gate_.Spend(m.pn_hours);
  QO_OBS_COUNT("flight.aa_runs", metrics.size());
  return metrics;
}

void FlightingService::CountOutcome(FlightOutcome outcome,
                                    bool fault_injected) {
  if (fault_injected) QO_OBS_COUNT("flight.fault_injected", 1);
  switch (outcome) {
    case FlightOutcome::kSuccess:
      QO_OBS_COUNT("flight.success", 1);
      break;
    case FlightOutcome::kFailure:
      QO_OBS_COUNT("flight.failure", 1);
      break;
    case FlightOutcome::kTimeout:
      QO_OBS_COUNT("flight.timeout_per_job", 1);
      QO_OBS_COUNT("flight.timeout", 1);
      break;
    case FlightOutcome::kFiltered:
      QO_OBS_COUNT("flight.filtered", 1);
      break;
    case FlightOutcome::kBudgetRejected:
      // "flight.timeout" counts every flight the budget or the per-job cap
      // cut short.
      QO_OBS_COUNT("flight.budget_rejected", 1);
      QO_OBS_COUNT("flight.timeout", 1);
      break;
  }
}

}  // namespace qo::flight
