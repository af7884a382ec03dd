#include "core/pipeline.h"

#include <cstdio>
#include <set>

#include "obs/span.h"

namespace qo::advisor {

std::string PipelineDayReport::ToString() const {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "day=%d jobs=%zu emitted=%zu compile_fail=%zu fwd=%zu "
      "faults_rec=%zu rewards_dropped=%zu req=%zu ok=%zu fail=%zu to=%zu "
      "filt=%zu budget_rej=%zu val=%zu hints=%zu budget=%.6f trained=%d "
      "reverted=%zu quarantined=%zu breaker_blocked=%zu retries=%zu "
      "recovered=%zu rows_dropped=%zu faults=%zu hint_rej=%d disabled=%d",
      day, feature_gen.input_jobs, feature_gen.emitted,
      feature_gen.compile_failures, recommender.forwarded,
      recommender.faults_injected, recommender.rewards_dropped,
      flight_requests, flights_success, flights_failure, flights_timeout,
      flights_filtered, flights_budget_rejected, validated, hints_uploaded,
      flight_budget_used_hours, validation_model_trained ? 1 : 0,
      hints_reverted, quarantine_blocked, breaker_blocked, flight_retries,
      flights_recovered, telemetry_rows_dropped, faults_injected,
      hint_file_rejected ? 1 : 0, steering_disabled ? 1 : 0);
  return line;
}

QoAdvisorPipeline::QoAdvisorPipeline(const engine::ScopeEngine* engine,
                                     sis::StatsInsightService* sis,
                                     PipelineConfig config,
                                     runtime::ParallelRuntime* runtime,
                                     bandit::PersonalizerService* personalizer)
    : engine_(engine),
      sis_(sis),
      config_(config),
      owned_runtime_(runtime != nullptr
                         ? nullptr
                         : std::make_unique<runtime::ParallelRuntime>(
                               config.runtime)),
      runtime_(runtime != nullptr ? runtime : owned_runtime_.get()),
      injector_(config.guard.faults),
      guard_(config.guard),
      owned_personalizer_(personalizer != nullptr
                              ? nullptr
                              : std::make_unique<bandit::PersonalizerService>(
                                    config.personalizer)),
      personalizer_(personalizer != nullptr ? personalizer
                                            : owned_personalizer_.get()),
      flighting_(engine, config.flighting, runtime_, &injector_),
      recommender_(engine, personalizer_, config.recommender, &injector_),
      validation_(config.validation) {
  // One collector covers the state of everything the pipeline owns or
  // borrows: the learner's retention, the flighting budget, the SIS hint
  // lifecycle (sis.*) and the pipeline's own cumulative day counts
  // (pipeline.*). Their event counts are registry counters already.
  collector_id_ =
      obs::Registry::Get().AddCollector([this](obs::SeriesSink& sink) {
        sink.Add("bandit.resident_events",
                 static_cast<double>(personalizer_->resident_events()));
        sink.Add("bandit.retention_window",
                 static_cast<double>(
                     personalizer_->config().retention_window));
        sink.Add("flight.budget_used_hours", flighting_.budget_used_hours());
        sink.Add("flight.budget_total_hours",
                 flighting_.config().total_budget_machine_hours);
        sink.Add("sis.version", static_cast<double>(sis_->current_version()));
        sink.Add("sis.active_hints",
                 static_cast<double>(sis_->active_hints()));
        sink.Add("sis.hints_uploaded",
                 static_cast<double>(sis_->total_hints_uploaded()));
        sink.Add("sis.hints_reverted",
                 static_cast<double>(sis_->hints_reverted()));
        sink.Add("pipeline.days", static_cast<double>(cum_.days));
        sink.Add("pipeline.flight_requests",
                 static_cast<double>(cum_.flight_requests));
        sink.Add("pipeline.validated", static_cast<double>(cum_.validated));
        sink.Add("pipeline.hints_uploaded",
                 static_cast<double>(cum_.hints_uploaded));
      });
}

QoAdvisorPipeline::~QoAdvisorPipeline() {
  obs::Registry::Get().RemoveCollector(collector_id_);
}

std::vector<Recommendation> QoAdvisorPipeline::PickRepresentatives(
    std::vector<Recommendation> recs) const {
  if (!config_.one_flight_per_template) return recs;
  std::set<int> seen;
  std::vector<Recommendation> out;
  for (auto& rec : recs) {
    if (seen.insert(rec.template_id).second) {
      out.push_back(std::move(rec));
    }
  }
  return out;
}

Result<PipelineDayReport> QoAdvisorPipeline::RunDay(
    const telemetry::WorkloadView& view) {
  QO_OBS_SPAN("run_day");
  PipelineDayReport report;
  report.day = view.day;

  // --- Stale-telemetry faults: rows that never arrived at the view. ---
  // Dropped before anything (watchdog included) sees them; pure per
  // (day, job), counted on this serial path only.
  telemetry::WorkloadView arrived_storage;
  const telemetry::WorkloadView* arrived = &view;
  if (injector_.armed() &&
      injector_.config().telemetry_drop_prob > 0.0) {
    arrived_storage.day = view.day;
    for (const auto& row : view.rows) {
      if (injector_.ShouldInject(guard::FaultSite::kTelemetry, view.day,
                                 row.job_id)) {
        ++report.telemetry_rows_dropped;
        QO_OBS_COUNT("guard.faults_telemetry_drop", 1);
        continue;
      }
      arrived_storage.rows.push_back(row);
    }
    arrived = &arrived_storage;
  }

  // --- Post-deployment watchdog: monitor yesterday's hints against today's
  // production telemetry; auto-revert sustained regressions and quarantine
  // the (template, rule) pairs. Monitoring continues even on days the
  // breaker keeps steering off.
  if (guard_.enabled()) {
    std::vector<guard::WatchdogAction> reverts =
        guard_.watchdog().ObserveDay(*arrived, sis_);
    report.hints_reverted = reverts.size();
  }

  // --- Global circuit breaker: when open, the day runs unsteered — no
  // recommendation, flighting or hint upload; production jobs keep running
  // on default configurations and the watchdog keeps watching.
  if (guard_.enabled() && !guard_.SteeringAllowed(view.day)) {
    report.steering_disabled = true;
    guard_.CloseDay(view.day);
    ++cum_.days;
    return report;
  }

  // --- Feature Generation (recurring jobs only, Sec. 2.1). ---
  std::vector<JobFeatures> features = [&] {
    QO_OBS_SPAN("feature_gen");
    return GenerateFeatures(*engine_, *arrived, &report.feature_gen, runtime_,
                            config_.recurring_only ? JobFilter::kRecurringOnly
                                                   : JobFilter::kAll);
  }();

  // --- Recommendation (CB + recompilation + pruning). ---
  std::vector<Recommendation> recs = recommender_.RecommendDay(
      features, view.day, &report.recommender, runtime_);

  // Guard bookkeeping for the recommendation boundary's injected faults.
  QO_OBS_COUNT("guard.faults_compile", report.recommender.faults_injected);
  QO_OBS_COUNT("guard.faults_reward_drop", report.recommender.rewards_dropped);

  // --- Flight selection: one representative per template, budget-capped.
  std::vector<Recommendation> candidates = PickRepresentatives(std::move(recs));
  // Guardrail filters: quarantined (template, rule) pairs stay blocked for
  // their cool-down; templates with an open breaker sit the day out.
  if (guard_.enabled()) {
    std::vector<Recommendation> allowed;
    allowed.reserve(candidates.size());
    for (auto& rec : candidates) {
      if (guard_.watchdog().Quarantined(rec.template_name, rec.rule_id,
                                        view.day)) {
        ++report.quarantine_blocked;
        QO_OBS_COUNT("guard.quarantine_blocked", 1);
        continue;
      }
      if (!guard_.TemplateAllowed(rec.template_name, view.day)) {
        ++report.breaker_blocked;
        QO_OBS_COUNT("guard.template_blocked", 1);
        continue;
      }
      allowed.push_back(std::move(rec));
    }
    candidates = std::move(allowed);
  }
  if (candidates.size() > config_.max_flights_per_day) {
    candidates.resize(config_.max_flights_per_day);
  }
  std::vector<flight::FlightRequest> requests;
  requests.reserve(candidates.size());
  for (const Recommendation& rec : candidates) {
    flight::FlightRequest req;
    req.job = rec.instance;
    req.baseline = opt::RuleConfig::Default();
    req.candidate = rec.ToConfig();
    req.est_cost_delta = rec.est_cost_default > 0.0
                             ? rec.est_cost_new / rec.est_cost_default - 1.0
                             : 0.0;
    requests.push_back(std::move(req));
  }
  report.flight_requests = requests.size();
  double budget_before = flighting_.budget_used_hours();
  std::vector<flight::FlightResult> flights = flighting_.FlightBatch(
      std::move(requests), static_cast<uint64_t>(view.day) * 7919);
  report.flight_budget_used_hours =
      flighting_.budget_used_hours() - budget_before;

  // Align flights back to their recommendations by job id.
  auto find_rec = [&](const std::string& job_id) -> const Recommendation* {
    for (const auto& rec : candidates) {
      if (rec.job_id == job_id) return &rec;
    }
    return nullptr;
  };

  // --- Graceful degradation: re-flight transient failures under fresh
  // salts (the simulated form of retry-with-backoff — each attempt is an
  // independent later submission). Serial, so retry traffic and its budget
  // spend are deterministic for any thread count.
  if (guard_.enabled() && config_.guard.flight_max_retries > 0) {
    uint64_t retry_no = 0;
    for (flight::FlightResult& fl : flights) {
      if (fl.outcome != flight::FlightOutcome::kFailure) continue;
      const Recommendation* rec = find_rec(fl.job_id);
      if (rec == nullptr) continue;
      flight::FlightRequest req{rec->instance, opt::RuleConfig::Default(),
                                rec->ToConfig(), 0.0};
      for (int attempt = 0; attempt < config_.guard.flight_max_retries &&
                            fl.outcome == flight::FlightOutcome::kFailure;
           ++attempt) {
        ++report.flight_retries;
        QO_OBS_COUNT("guard.flight_retries", 1);
        auto retry = flighting_.FlightOne(
            req, static_cast<uint64_t>(view.day) * 15485863 + ++retry_no);
        if (!retry.ok()) break;  // budget exhausted: give up on retries
        if (retry->outcome == flight::FlightOutcome::kFailure) continue;
        if (retry->outcome == flight::FlightOutcome::kSuccess) {
          ++report.flights_recovered;
          QO_OBS_COUNT("guard.flight_recoveries", 1);
        }
        // The injected-fault flag stays sticky across the replacement so
        // the day report still counts the fault the retry recovered from.
        bool was_injected = fl.fault_injected;
        fl = *retry;
        fl.fault_injected |= was_injected;
      }
    }
  }

  // --- Validation: gather samples, retrain, accept/reject. ---
  std::vector<Recommendation> validated;
  {
    QO_OBS_SPAN("validate");
    for (const flight::FlightResult& flight : flights) {
      if (flight.fault_injected) {
        ++report.faults_injected;
        QO_OBS_COUNT("guard.faults_flight", 1);
      }
      // Steering-health events for the breakers: completed flights vote
      // success/failure (timeouts count as failures — a timeout storm must
      // trip the breaker); budget rejections and filtered jobs say nothing
      // about steering health.
      if (guard_.enabled() &&
          (flight.outcome == flight::FlightOutcome::kSuccess ||
           flight.outcome == flight::FlightOutcome::kFailure ||
           flight.outcome == flight::FlightOutcome::kTimeout)) {
        const Recommendation* rec = find_rec(flight.job_id);
        guard_.RecordSteeringEvent(
            rec != nullptr ? rec->template_name : flight.job_id,
            flight.outcome != flight::FlightOutcome::kSuccess);
      }
      switch (flight.outcome) {
        case flight::FlightOutcome::kSuccess:
          ++report.flights_success;
          break;
        case flight::FlightOutcome::kFailure:
          ++report.flights_failure;
          continue;
        case flight::FlightOutcome::kTimeout:
          ++report.flights_timeout;
          continue;
        case flight::FlightOutcome::kFiltered:
          ++report.flights_filtered;
          continue;
        case flight::FlightOutcome::kBudgetRejected:
          ++report.flights_budget_rejected;
          continue;
      }
      const Recommendation* rec = find_rec(flight.job_id);
      if (rec == nullptr) continue;
      // The regression target is the PNhours delta of a *future* occurrence:
      // emulate the next run of the recurring job with a fresh seed.
      auto future = flighting_.FlightOne(
          {rec->instance, opt::RuleConfig::Default(), rec->ToConfig(), 0.0},
          static_cast<uint64_t>(view.day) * 104729 + validation_samples_.size());
      if (future.ok() && future->outcome == flight::FlightOutcome::kSuccess) {
        validation_samples_.push_back(
            MakeSample(flight, future->pn_hours_delta));
      }
      if (!validation_.trained() &&
          validation_samples_.size() >=
              config_.validation.min_training_samples) {
        validation_.Train(validation_samples_).ok();
      }
      if (validation_.Accept(flight)) {
        validated.push_back(*rec);
        ++report.validated;
      }
    }
    report.validation_model_trained = validation_.trained();
  }

  // --- Hint Generation + SIS upload. ---
  if (!validated.empty()) {
    QO_OBS_SPAN("hint_gen");
    sis::HintFile file = BuildHintFile(validated, view.day);
    if (injector_.armed() && injector_.config().hint_corrupt_prob > 0.0) {
      // Chaos path: the file travels as serialized text, where a corrupt
      // write must be caught by the strict parser before installation —
      // a bad file is rejected whole, never half-applied.
      std::string text = file.Serialize();
      if (injector_.ShouldInject(guard::FaultSite::kHintFile, view.day,
                                 uint64_t{0})) {
        text = injector_.CorruptHintText(text, view.day);
        ++report.faults_injected;
        QO_OBS_COUNT("guard.faults_hint_file", 1);
      }
      auto parsed = sis::HintFile::Parse(text);
      if (!parsed.ok()) {
        report.hint_file_rejected = true;
        QO_OBS_COUNT("guard.hint_files_rejected", 1);
      } else {
        auto version = sis_->UploadHintFile(*parsed);
        if (version.ok()) report.hints_uploaded = parsed->entries.size();
      }
    } else {
      auto version = sis_->UploadHintFile(file);
      if (version.ok()) report.hints_uploaded = file.entries.size();
    }
  }

  // End of day: breakers evaluate the day's steering-health events.
  if (guard_.enabled()) guard_.CloseDay(view.day);

  ++cum_.days;
  cum_.flight_requests += report.flight_requests;
  cum_.validated += report.validated;
  cum_.hints_uploaded += report.hints_uploaded;
  return report;
}

}  // namespace qo::advisor
