// End-to-end QO-Advisor deployment through the advisor service: open a
// tenant on the AdvisorService, run the full daily pipeline (feature
// generation -> contextual-bandit recommendation -> recompilation ->
// flighting -> validation -> hint generation -> SIS) over two weeks of a
// recurring workload, then show the published hint snapshot steering
// production jobs.
//
//   ./build/examples/daily_pipeline [days]
//
// Every environment knob is snapshotted exactly once into AdvisorOptions at
// startup and threaded explicitly — the service constructs each subsystem
// from the captured values, never from a later env read.
//
// Observability: every per-subsystem counter (cache, memo, exec profiles,
// bandit, flighting, SIS, service) plus the phase timers surface through
// the metrics registry, so the closing summary is one registry-wide report
// dump. Each day also appends a JSONL run-report line to QO_OBS_REPORT
// (default: daily_pipeline_report.jsonl), and QO_TRACE=<path> additionally
// writes a Chrome-trace span dump loadable in Perfetto.
//
// Guardrails: QO_GUARD=1 arms the watchdog/breaker/retry layer, and the
// QO_FAULT_* knobs inject deterministic chaos. Try
//   QO_GUARD=1 QO_FAULT_SEED=7 QO_FAULT_HINT_REGRESSION=0.5
//   QO_FAULT_HINT_REGRESSION_FACTOR=6 ./build/examples/daily_pipeline
// (one command line) to watch deployed hints regress in production, get
// auto-reverted within the hysteresis window, and stay quarantined.
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "experiments/experiments.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "service/advisor_service.h"

int main(int argc, char** argv) {
  using namespace qo;  // NOLINT
  int days = argc > 1 ? std::atoi(argv[1]) : 14;

  // One env snapshot for the whole process; everything below is threaded
  // from these captured values.
  service::AdvisorOptions options = service::AdvisorOptions::FromEnv();

  experiments::ExperimentEnv env(benchutil::HarnessConfig(
      options, {.num_templates = 60, .jobs_per_day = 100, .seed = 7}));

  service::AdvisorService advisor(options);
  service::TenantConfig tenant;
  // Share the harness engine so uploaded hints steer the same compile cache
  // the production runs hit.
  tenant.engine = &env.engine();
  // Offline-pipeline learner cadence: retrain every N rewards inside the
  // day loop (the service-owned cadence is for always-on serving tenants).
  tenant.service_owns_retrain = false;
  tenant.personalizer.epsilon = 0.15;
  tenant.pipeline.flighting.total_budget_machine_hours = 1.0e6;
  tenant.pipeline.validation.min_training_samples = 30;
  tenant.pipeline.recommender.uniform_probes_per_job = 3;
  auto session = advisor.OpenTenant("daily", tenant);
  if (!session.ok()) {
    std::printf("open tenant failed: %s\n",
                session.status().ToString().c_str());
    return 1;
  }

  // Per-day JSONL sink: QO_OBS_REPORT when set, a local default otherwise.
  std::unique_ptr<obs::RunReportWriter> report_writer =
      obs::RunReportWriter::FromEnv();
  if (report_writer == nullptr && obs::MetricsEnabled()) {
    report_writer =
        std::make_unique<obs::RunReportWriter>("daily_pipeline_report.jsonl");
  }
  const std::string report_label = obs::ObsLabelFromEnv("daily_pipeline");

  std::printf("%4s %6s %6s %9s %8s %8s %10s %6s %7s %5s\n", "day", "jobs",
              "spans", "forwarded", "flights", "validated", "hints(new)",
              "active", "revert", "quar");
  for (int day = 0; day < days; ++day) {
    // The view includes jobs already steered by previously uploaded hints —
    // the closed loop of Fig. 1.
    telemetry::WorkloadView view = env.BuildDayView(day, &session->sis());
    auto report = session->RunPipelineDay(view);
    if (!report.ok()) {
      std::printf("day %d failed: %s\n", day, report.status().ToString().c_str());
      continue;
    }
    std::printf("%4d %6zu %6zu %9zu %8zu %8zu %10zu %6zu %7zu %5zu\n", day,
                report->feature_gen.input_jobs, report->feature_gen.emitted,
                report->recommender.forwarded, report->flights_success,
                report->validated, report->hints_uploaded,
                session->sis().active_hints(), report->hints_reverted,
                report->quarantine_blocked);
    if (report_writer != nullptr) {
      report_writer->Append(obs::RunReportJsonLine(
          report_label, day, obs::Registry::Get().Snapshot()));
    }
  }

  // The published RCU snapshot is what concurrent compile traffic would
  // see; its version tracks the SIS version the day loop left behind.
  auto snapshot = session->snapshot();
  std::printf("\nactive hints after %d days (SIS version %d, snapshot seq "
              "%llu):\n",
              days, snapshot->hints->version(),
              static_cast<unsigned long long>(snapshot->sequence));
  for (const auto& file : session->sis().history()) {
    for (const auto& entry : file.entries) {
      std::printf("  %-16s -> %s rule %d (%s)\n",
                  entry.template_name.c_str(),
                  entry.enable ? "enable " : "disable",
                  entry.rule_id,
                  opt::RuleRegistry::Get().name(entry.rule_id).c_str());
    }
  }

  // Show the steering effect on the next day's matching jobs: compile
  // through the advisor API (which resolves hints from the published
  // snapshot), execute through the tenant engine.
  std::printf("\nnext-day impact on hint-matched jobs:\n");
  int shown = 0;
  for (const auto& job : env.driver().DayJobs(days)) {
    if (shown >= 8) break;
    auto steered = session->Compile(job);
    if (!steered.ok() || !steered->hint_applied) continue;
    auto base = session->Compile(job, /*apply_hints=*/false);
    if (!base.ok()) continue;
    exec::JobMetrics base_m = env.engine().Execute(job, *base->compilation, 1);
    exec::JobMetrics steered_m =
        env.engine().Execute(job, *steered->compilation, 2);
    std::printf("  %-28s PNhours %+6.1f%%  latency %+6.1f%%\n",
                job.job_id.c_str(),
                100.0 * exec::RelativeDelta(steered_m.pn_hours,
                                            base_m.pn_hours),
                100.0 * exec::RelativeDelta(steered_m.latency_sec,
                                            base_m.latency_sec));
    ++shown;
  }
  if (shown == 0) {
    std::printf("  (no hint matched on day %d — try more days)\n", days);
  }

  // Guardrail activity: watchdog reverts, quarantines still in cool-down,
  // breaker trips and the chaos faults the pipeline absorbed, read from the
  // registry's guard.* counters (they count even with QO_METRICS=0). The
  // guard config came from the AdvisorOptions snapshot (QO_GUARD +
  // QO_FAULT_*).
  advisor::QoAdvisorPipeline* pipeline = session->pipeline();
  if (pipeline != nullptr && pipeline->steering_guard().enabled()) {
    std::printf("\n%s",
                guard::GuardrailsText(obs::Registry::Get().Snapshot()).c_str());
    std::printf("  quarantines active on day %d: %zu\n", days,
                pipeline->steering_guard().watchdog().ActiveQuarantines(days));
    std::printf("  steered-run fallbacks (injected compile faults): %llu\n",
                static_cast<unsigned long long>(env.steered_fallbacks()));
    std::printf("  production runs inflated by injected regressions: %llu\n",
                static_cast<unsigned long long>(env.regressions_injected()));
  }

  // One registry-wide dump covers every subsystem the service wires
  // together: cache/memo/exec-profile absorption, the bandit's
  // combined-feature cache and retention health, flighting budget, SIS hint
  // lifecycle, the advisor service's request counters and the phase latency
  // quantiles. Gated on the metrics switch: QO_METRICS=0 keeps stdout free
  // of timer-dependent lines (what the CI chaos-determinism diff relies on).
  if (obs::MetricsEnabled()) {
    std::printf("\n%s",
                obs::RunReportText(obs::Registry::Get().Snapshot()).c_str());
  }
  if (report_writer != nullptr) {
    std::printf("\nper-day run report appended to %s\n",
                report_writer->path().c_str());
  }
  return 0;
}
