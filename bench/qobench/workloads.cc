#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/stats.h"
#include "experiments/experiments.h"
#include "measure.h"
#include "obs/metrics.h"
#include "optimizer/rules.h"
#include "service/advisor_service.h"
#include "workload/workload.h"

namespace qobench {
namespace {

using namespace qo;  // NOLINT

/// Busy threads per workload: the offline runtime pool, or the serving
/// clients. With the waiting main thread, at most three cores are busy.
constexpr int kThreads = 2;

/// Template universe: tenant k's job templates always come from this seed
/// plus k, like the fixed query set of a TPC benchmark. --seed picks the
/// simulated calendar window instead (FirstDay), which redraws every job
/// instance (data sizes, selectivities, stale statistics) and every one-off
/// job. Over 25 offline days, a tenant's full optimizer runs varied by 7.4%
/// (coefficient of variation) across template universes and by 1.4% across
/// calendar windows of one universe.
constexpr uint64_t kTemplateSeed = 2022;

/// First simulated day for a seed: windows 100 days apart, so two seeds
/// never share a day.
int FirstDay(uint64_t seed) {
  return static_cast<int>(MixHash(seed) % 2000) * 100;
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

[[noreturn]] void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "qobench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

/// Every knob from the environment (so QO_* A/B runs work), with the thread
/// count pinned and retraining left to the workload.
service::AdvisorOptions BenchOptions(int threads) {
  service::AdvisorOptions options = service::AdvisorOptions::FromEnv();
  options.runtime.num_threads = threads;
  options.retrain_period_ms = 0;
  return options;
}

/// Builds the workload's state repeatedly and returns the last build;
/// *setup_s gets the median build time. At least three builds, and more
/// until half a second has gone into them, so a set-up of a few
/// milliseconds is a median over many builds.
template <typename Build>
auto RepeatSetup(Build build, double* setup_s) {
  Samples times;
  decltype(build()) state;
  while (times.count() < 3 || times.sum_ns() < 500'000'000) {
    state = decltype(state)();  // the previous build is freed untimed
    const uint64_t t0 = obs::MonotonicNowNs();
    state = build();
    times.Add(obs::MonotonicNowNs() - t0);
  }
  *setup_s = times.QuantileUs(0.5) / 1e6;
  return state;
}

/// One measurement window: a tenant on offline, 1/16 of the ops on serve_*.
/// Each timing metric is computed exactly within every window and the
/// median window is reported, so a burst of interference from other
/// processes on the host moves one window rather than the result.
struct Window {
  Samples calls;     ///< every timed call
  Samples compiles;  ///< Compile calls only
  double calls_per_s = 0.0;
  double jobs_per_s = 0.0;
};

/// Bench-side totals of the calls qobench makes into each layer. They
/// feed the service.* and experiments.* rows of the traced run.
struct CallTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t compiles = 0;
  uint64_t compile_ns = 0;
  uint64_t build_day_view_ns = 0;
  uint64_t rank_ns = 0;
  uint64_t reward_ns = 0;
  uint64_t publish_ns = 0;  ///< TrainAndPublish
  uint64_t publishes = 0;   ///< TrainAndPublish calls that published
  uint64_t upload_ns = 0;
  uint64_t uploads = 0;
  uint64_t uploads_accepted = 0;

  void Merge(const CallTotals& o) {
    attempted += o.attempted;
    failed += o.failed;
    compiles += o.compiles;
    compile_ns += o.compile_ns;
    build_day_view_ns += o.build_day_view_ns;
    rank_ns += o.rank_ns;
    reward_ns += o.reward_ns;
    publish_ns += o.publish_ns;
    publishes += o.publishes;
    upload_ns += o.upload_ns;
    uploads += o.uploads;
    uploads_accepted += o.uploads_accepted;
  }
};

/// Records one timed call into its window and the totals.
void RecordCall(Window* w, CallTotals* t, uint64_t ns, bool ok) {
  w->calls.Add(ns);
  ++t->attempted;
  if (!ok) ++t->failed;
}

void RecordCompile(Window* w, CallTotals* t, uint64_t ns, bool ok) {
  RecordCall(w, t, ns, ok);
  w->compiles.Add(ns);
  ++t->compiles;
  t->compile_ns += ns;
}

/// Offline-only numbers that the per-layer table carries.
struct PipelineNumbers {
  double day_ms_p50 = 0.0;
  double day_ms_p95 = 0.0;
  double pnhours_saved_pct = 0.0;
};

/// Per-layer metrics: registry deltas over the timed phase plus the
/// qobench's own call timings. Names and units match BENCHMARK.json.
std::vector<Metric> LayerMetrics(const RegistryDelta& d, const CallTotals& c,
                                 double wall_s, size_t active_hints,
                                 const PipelineNumbers& p) {
  const double parse_ms = d.SpanMs("parse");
  const double optimize_ms = d.SpanMs("optimize");
  const double compile_ms = d.SpanMs("compile");
  const double execute_ms = d.SpanMs("execute");
  const double memo_hits = d.Series("optimizer.memo.full_hits") +
                           d.Series("optimizer.memo.norm_hits");
  const double fe_hits = d.Series("cache.front_end.hits");
  const double l2_hits = d.Series("cache.compilations.hits");
  const double profile_hits = d.Series("exec.profile_hits");
  const double flights_ok = d.Series("flight.success");
  return {
      {"scope.parse_ms", parse_ms},
      {"scope.parses", static_cast<double>(d.SpanCount("parse"))},
      {"optimizer.optimize_ms", optimize_ms},
      {"optimizer.optimizes", static_cast<double>(d.SpanCount("optimize"))},
      {"optimizer.memo_hit_ratio",
       Ratio(memo_hits, memo_hits + d.Series("optimizer.memo.misses"))},
      {"cache.probe_ms", std::max(0.0, compile_ms - parse_ms - optimize_ms)},
      {"cache.fe_hit_ratio",
       Ratio(fe_hits, fe_hits + d.Series("cache.front_end.misses"))},
      {"cache.l2_hit_ratio",
       Ratio(l2_hits, l2_hits + d.Series("cache.compilations.misses"))},
      {"cache.l2_evictions", d.Series("cache.compilations.evictions")},
      {"exec.execute_ms", execute_ms + d.SpanMs("exec.run_batch")},
      {"exec.prepare_ms", d.SpanMs("exec.prepare")},
      {"exec.runs",
       d.Series("exec.prepared_runs") + d.Series("exec.unprepared_runs")},
      {"exec.profile_reuse_ratio",
       Ratio(profile_hits, profile_hits + d.Series("exec.profile_misses"))},
      {"bandit.rank_ms", d.SpanMs("rank")},
      {"bandit.ranks", static_cast<double>(d.SpanCount("rank"))},
      {"bandit.reward_ms", d.SpanMs("reward")},
      // The service trains inside TrainAndPublish, which has no span of its
      // own: qobench's timing of those calls stands in for it.
      {"bandit.retrain_ms", d.SpanMs("retrain") + c.publish_ns / 1e6},
      {"bandit.retrains",
       d.Series("bandit.retrains") + static_cast<double>(c.publishes)},
      {"core.feature_gen_ms", d.SpanMs("feature_gen")},
      {"core.recommend_ms", d.SpanMs("recommend")},
      {"core.validate_ms", d.SpanMs("validate")},
      {"core.hint_gen_ms", d.SpanMs("hint_gen")},
      {"flighting.flight_ms", d.SpanMs("flight")},
      {"flighting.flights", static_cast<double>(d.SpanCount("flight"))},
      {"flighting.success_ratio",
       Ratio(flights_ok, flights_ok + d.Series("flight.failure") +
                             d.Series("flight.timeout"))},
      {"experiments.build_day_view_ms", c.build_day_view_ns / 1e6},
      {"service.compile_ms", c.compile_ns / 1e6},
      {"service.compile_calls", static_cast<double>(c.compiles)},
      {"service.rank_ms", c.rank_ns / 1e6},
      {"service.reward_ms", c.reward_ns / 1e6},
      {"service.publish_ms", c.publish_ns / 1e6},
      {"service.publishes", d.Series("service.snapshot_publications")},
      {"service.upload_ms", c.upload_ns / 1e6},
      {"sis.upload_accept_ratio",
       Ratio(static_cast<double>(c.uploads_accepted),
             static_cast<double>(c.uploads))},
      {"sis.active_hints", static_cast<double>(active_hints)},
      {"runtime.worker_util",
       Ratio((compile_ms + execute_ms) / 1e3, kThreads * wall_s)},
      {"pipeline.day_ms_p50", p.day_ms_p50},
      {"pipeline.day_ms_p95", p.day_ms_p95},
      {"pipeline.pnhours_saved_pct", p.pnhours_saved_pct},
  };
}

/// The end-to-end metrics every workload reports (BENCHMARK.json order).
std::vector<Metric> EndToEnd(double setup_s, double peak_rss_mb,
                             std::vector<Window>& windows) {
  std::vector<double> jobs, calls, p50, p99, compile_p99;
  for (Window& w : windows) {
    jobs.push_back(w.jobs_per_s);
    calls.push_back(w.calls_per_s);
    p50.push_back(w.calls.QuantileUs(0.50));
    p99.push_back(w.calls.QuantileUs(0.99));
    compile_p99.push_back(w.compiles.QuantileUs(0.99));
  }
  return {
      {"setup_s", setup_s},
      {"peak_rss_mb", peak_rss_mb},
      {"jobs_per_s", Percentile(jobs, 50)},
      {"qps", Percentile(calls, 50)},
      {"req_p50_us", Percentile(p50, 50)},
      {"req_p99_us", Percentile(p99, 50)},
      {"compile_p99_us", Percentile(compile_p99, 50)},
  };
}

std::string CountNote(const CallTotals& c, const std::vector<Window>& windows,
                      double wall_s) {
  size_t min_calls = SIZE_MAX, min_compiles = SIZE_MAX;
  for (const Window& w : windows) {
    min_calls = std::min(min_calls, w.calls.count());
    min_compiles = std::min(min_compiles, w.compiles.count());
  }
  return Format(
      "calls: %llu timed (%llu failed) over %.3f s in %zu windows; per "
      "window, req percentiles over N>=%zu calls, compile_p99_us over "
      "N>=%zu compiles",
      static_cast<unsigned long long>(c.attempted),
      static_cast<unsigned long long>(c.failed), wall_s, windows.size(),
      min_calls, min_compiles);
}

// ---------------------------------------------------------------------------
// offline: the daily pipeline for a fleet of tenants, then a hinted-vs-
// default evaluation per tenant through the service.
// ---------------------------------------------------------------------------

struct OfflineSize {
  int tenants = 6;
  int days = 70;
  /// Ten days (1,500 steered compiles) leave at least ten samples beyond
  /// each tenant window's compile p99; five left about eight.
  int eval_days = 10;
  int replay_days = 10;
};

/// Full size (scale 1) is 6 tenants x 70 days = 420 tenant-days. Smaller
/// scales drop tenants first, then days.
OfflineSize OfflineSizeFor(double scale) {
  OfflineSize size;
  const int tenant_days =
      std::max(1, static_cast<int>(std::lround(420.0 * scale)));
  size.tenants = std::clamp((tenant_days + 69) / 70, 1, 6);
  size.days = std::max(1, tenant_days / size.tenants);
  size.replay_days = std::min(size.replay_days, size.days);
  return size;
}

struct OfflineTenant {
  // Declared before `service`, which borrows its engine.
  std::unique_ptr<experiments::ExperimentEnv> env;
  std::unique_ptr<service::AdvisorService> service;
  service::TenantSession session;
};

/// Tenant k: the paper-scale workload (90 templates x 150 jobs/day) with
/// RunAggregateImpact's pipeline settings. Each tenant gets a service of
/// its own so its memory goes when it finishes: one tenant's caches peak
/// near 0.5 GB, and a service cannot close a single tenant.
std::unique_ptr<OfflineTenant> BuildOfflineTenant(int k, int threads) {
  auto tenant = std::make_unique<OfflineTenant>();
  tenant->env = std::make_unique<experiments::ExperimentEnv>(
      experiments::ExperimentConfig{
          .num_templates = 90,
          .jobs_per_day = 150,
          .seed = kTemplateSeed + static_cast<uint64_t>(k),
          .threads = threads});
  tenant->service =
      std::make_unique<service::AdvisorService>(BenchOptions(threads));
  service::TenantConfig config;
  config.engine = &tenant->env->engine();
  config.service_owns_retrain = false;
  config.personalizer.epsilon = 0.15;
  config.personalizer.retrain_interval = 128;
  config.pipeline.flighting.total_budget_machine_hours = 1.0e6;
  config.pipeline.validation.min_training_samples = 30;
  config.pipeline.recommender.uniform_probes_per_job = 3;
  auto session = tenant->service->OpenTenant("tenant_" + std::to_string(k),
                                             config);
  if (!session.ok()) Fatal("open offline tenant", session.status());
  tenant->session = *session;
  return tenant;
}

/// What the timed phase accumulates across tenants.
struct OfflineTotals {
  CallTotals calls;
  Samples day_ns;  ///< RunPipelineDay wall time per tenant-day
  double base_pn = 0.0;
  double cand_pn = 0.0;
  size_t matched = 0;
  Digest digest;
};

/// One tenant-day: BuildDayView then RunPipelineDay. Adds the day's jobs
/// and its time in the two calls to *jobs / *pipeline_ns and returns the
/// day's digest line.
std::string RunTenantDay(OfflineTenant& t, int day, Window* w,
                         OfflineTotals* totals, uint64_t* jobs,
                         uint64_t* pipeline_ns) {
  const uint64_t t0 = obs::MonotonicNowNs();
  telemetry::WorkloadView view = t.env->BuildDayView(day, &t.session.sis());
  const uint64_t t1 = obs::MonotonicNowNs();
  auto report = t.session.RunPipelineDay(view);
  const uint64_t t2 = obs::MonotonicNowNs();
  RecordCall(w, &totals->calls, t1 - t0, true);
  RecordCall(w, &totals->calls, t2 - t1, report.ok());
  totals->calls.build_day_view_ns += t1 - t0;
  totals->day_ns.Add(t2 - t1);
  *pipeline_ns += t2 - t0;
  *jobs += view.rows.size();
  if (!report.ok()) return "error " + report.status().ToString();
  return report->ToString();
}

/// The evaluation days after training, through the service: every job
/// compiles steered by the tenant's published snapshot, as on SCOPE's
/// compile path. Hint-matched jobs also compile under the default config
/// and run both plans under paired salts — Table 2's comparison. Calls fan
/// out over the tenant's runtime.
void EvaluateTenant(OfflineTenant& t, int first_eval_day, int eval_days,
                    Window* w, OfflineTotals* totals) {
  struct EvalJob {
    service::CompileRequest steered;
    service::CompileRequest base;
    uint64_t salt = 0;
  };
  std::vector<EvalJob> jobs;
  Rng rng(t.env->config().seed ^ 0xab1e);
  for (int day = first_eval_day; day < first_eval_day + eval_days; ++day) {
    for (workload::JobInstance& job : t.env->driver().DayJobs(day)) {
      EvalJob e;
      e.steered.tenant = t.session.tenant();
      e.steered.job = std::move(job);
      e.base = e.steered;
      e.base.apply_hints = false;
      e.salt = rng.Next();
      jobs.push_back(std::move(e));
    }
  }

  struct Outcome {
    bool ok = false;
    bool matched = false;
    exec::JobMetrics base;
    exec::JobMetrics cand;
    std::vector<uint64_t> compile_ns;
    std::vector<uint64_t> execute_ns;
  };
  service::AdvisorService& advisor = *t.service;
  const engine::ScopeEngine& engine = t.env->engine();
  t.env->runtime()->ForEachOrdered<Outcome>(
      jobs.size(),
      [&](size_t i) {
        return static_cast<uint64_t>(jobs[i].steered.job.template_id);
      },
      [](size_t i) { return static_cast<double>(i); },
      [&](size_t i) {
        const EvalJob& e = jobs[i];
        Outcome out;
        uint64_t t0 = obs::MonotonicNowNs();
        auto cand = advisor.Compile(e.steered);
        out.compile_ns.push_back(obs::MonotonicNowNs() - t0);
        if (!cand.ok()) return out;
        out.ok = true;
        if (!cand->hint_applied) return out;
        t0 = obs::MonotonicNowNs();
        auto base = advisor.Compile(e.base);
        out.compile_ns.push_back(obs::MonotonicNowNs() - t0);
        if (!base.ok()) {
          out.ok = false;
          return out;
        }
        out.matched = true;
        t0 = obs::MonotonicNowNs();
        out.base = engine.Execute(e.base.job, *base->compilation,
                                  e.salt * 2 + 1);
        const uint64_t t1 = obs::MonotonicNowNs();
        out.cand = engine.Execute(e.base.job, *cand->compilation,
                                  e.salt * 2 + 2);
        out.execute_ns = {t1 - t0, obs::MonotonicNowNs() - t1};
        return out;
      },
      [&](size_t, Outcome&& out) {
        for (size_t i = 0; i < out.compile_ns.size(); ++i) {
          // Only the last compile of a job can be the one that failed.
          const bool ok = out.ok || i + 1 < out.compile_ns.size();
          RecordCompile(w, &totals->calls, out.compile_ns[i], ok);
        }
        for (uint64_t ns : out.execute_ns) {
          RecordCall(w, &totals->calls, ns, true);
        }
        if (!out.ok) {
          totals->digest.Add(std::string_view("eval-compile-failed"));
          return;
        }
        totals->digest.Add(static_cast<uint64_t>(out.matched));
        if (!out.matched) return;
        totals->digest.Add(out.base.pn_hours);
        totals->digest.Add(out.cand.pn_hours);
        totals->digest.Add(out.base.latency_sec);
        totals->digest.Add(out.cand.latency_sec);
        totals->base_pn += out.base.pn_hours;
        totals->cand_pn += out.cand.pn_hours;
        ++totals->matched;
      });
}

}  // namespace

WorkloadResult RunOffline(const WorkloadOptions& options) {
  const OfflineSize size = OfflineSizeFor(options.scale);
  const int first_day = FirstDay(options.seed);
  WorkloadResult result;
  result.size_key = Format("tenants=%d days=%d eval_days=%d", size.tenants,
                           size.days, size.eval_days);

  double setup_s = 0.0;
  std::vector<std::unique_ptr<OfflineTenant>> tenants = RepeatSetup(
      [&] {
        std::vector<std::unique_ptr<OfflineTenant>> built;
        for (int k = 0; k < size.tenants; ++k) {
          built.push_back(BuildOfflineTenant(k, kThreads));
        }
        return built;
      },
      &setup_s);

  // Tenant-major: each tenant runs all its days and its evaluation, then is
  // released (untimed) before the next starts. One window per tenant.
  OfflineTotals totals;
  std::vector<Window> windows(static_cast<size_t>(size.tenants));
  Digest prefix;  // tenant 0's first replay_days days
  RegistryDelta registry;
  uint64_t active_ns = 0;
  size_t active_hints = 0;
  for (int k = 0; k < size.tenants; ++k) {
    OfflineTenant& tenant = *tenants[static_cast<size_t>(k)];
    Window& w = windows[static_cast<size_t>(k)];
    uint64_t jobs = 0;
    uint64_t pipeline_ns = 0;
    if (options.traced) registry.Begin();
    const uint64_t start = obs::MonotonicNowNs();
    for (int day = first_day; day < first_day + size.days; ++day) {
      const std::string line =
          RunTenantDay(tenant, day, &w, &totals, &jobs, &pipeline_ns);
      totals.digest.Add(line);
      if (k == 0 && day < first_day + size.replay_days) prefix.Add(line);
    }
    for (const sis::HintFile& file : tenant.session.sis().history()) {
      totals.digest.Add(file.Serialize());
    }
    EvaluateTenant(tenant, first_day + size.days, size.eval_days, &w,
                   &totals);
    const uint64_t tenant_ns = obs::MonotonicNowNs() - start;
    if (options.traced) registry.End();
    active_ns += tenant_ns;
    w.calls_per_s = static_cast<double>(w.calls.count()) / (tenant_ns / 1e9);
    w.jobs_per_s = static_cast<double>(jobs) / (pipeline_ns / 1e9);
    active_hints += tenant.session.snapshot()->hints->active_hints();
    tenants[static_cast<size_t>(k)].reset();
  }
  const double wall_s = static_cast<double>(active_ns) / 1e9;
  const double peak_rss_mb = PeakRssMb();

  PipelineNumbers pipeline;
  pipeline.day_ms_p50 = totals.day_ns.QuantileUs(0.50) / 1e3;
  pipeline.day_ms_p95 = totals.day_ns.QuantileUs(0.95) / 1e3;
  pipeline.pnhours_saved_pct =
      -100.0 * exec::RelativeDelta(totals.cand_pn, totals.base_pn);
  if (options.traced) {
    result.layers =
        LayerMetrics(registry, totals.calls, wall_s, active_hints, pipeline);
  }
  result.end_to_end = EndToEnd(setup_s, peak_rss_mb, windows);
  result.attempted = totals.calls.attempted;
  result.failed = totals.calls.failed;
  result.digest = totals.digest.value();
  result.notes.push_back(CountNote(totals.calls, windows, wall_s));
  result.notes.push_back(Format(
      "days %d-%d; day_ms_p50=%.3f day_ms_p95=%.3f over N=%zu tenant-days; "
      "pnhours_saved_pct=%.4f over %zu hint-matched evaluation jobs",
      first_day, first_day + size.days - 1, pipeline.day_ms_p50,
      pipeline.day_ms_p95, totals.day_ns.count(), pipeline.pnhours_saved_pct,
      totals.matched));

  // Replay: tenant 0's first days on a fresh single-threaded tenant.
  std::unique_ptr<OfflineTenant> replay = BuildOfflineTenant(0, 1);
  OfflineTotals unused;
  Window unused_window;
  uint64_t unused_jobs = 0;
  uint64_t unused_ns = 0;
  Digest replayed;
  for (int day = first_day; day < first_day + size.replay_days; ++day) {
    replayed.Add(RunTenantDay(*replay, day, &unused_window, &unused,
                              &unused_jobs, &unused_ns));
  }
  result.replay_ok = replayed.value() == prefix.value();
  result.replay_note =
      Format("tenant 0, first %d days at 1 thread", size.replay_days);
  return result;
}

// ---------------------------------------------------------------------------
// serve_hot / serve_mixed: closed-loop clients against the always-on service.
// ---------------------------------------------------------------------------

namespace {

constexpr int kServeTenants = 4;
constexpr int kWindows = 16;
constexpr int kTrainEvery = 32;    ///< serve_mixed: TrainAndPublish cadence
constexpr int kUploadEvery = 256;  ///< serve_mixed: UploadHints cadence
constexpr int kArms = 4;
constexpr int kActionRules[kArms] = {
    opt::rules::kBroadcastJoinAggressive, opt::rules::kEagerAggregationLeft,
    opt::rules::kFilterPushdownIntoJoinLeft, opt::rules::kFilterIntoScan};

/// Full size (scale 1): ops per tenant. serve_hot issues 2 calls per op,
/// serve_mixed about 3.
constexpr int kHotOpsPerTenant = 900000;
constexpr int kMixedOpsPerTenant = 300000;

/// One tenant's inputs: the job pool with a prebuilt request per job, the
/// initial hint file and the upload rotation. Read-only once built, except
/// that the owning client rewrites the rank requests' event ids.
struct ServeTenant {
  std::string name;
  std::vector<service::CompileRequest> compiles;
  std::vector<service::RankRequest> ranks;
  /// Per pool job: the arm whose reward is 1 (serve_mixed).
  std::vector<int> preferred_arm;
  sis::HintFile initial_hints;
  /// Single-template hints uploaded in turn by serve_mixed: each hinted
  /// template steps through the four action rules.
  std::vector<sis::HintEntry> rotation;
};

/// A pool of 2,000 jobs (40 templates, 90% recurring, 20 days x 100 jobs
/// from the seed's calendar window) and hints on every third template.
ServeTenant BuildServeTenant(uint64_t seed, int t) {
  ServeTenant tenant;
  tenant.name = "tenant_" + std::to_string(t);
  workload::WorkloadDriver driver(
      {.num_templates = 40,
       .jobs_per_day = 100,
       .recurring_fraction = 0.9,
       .template_skew = 0.5,
       .seed = kTemplateSeed + 100 + static_cast<uint64_t>(t)});
  const int first_day = FirstDay(seed);
  std::vector<workload::JobInstance> pool;
  for (int day = first_day; day < first_day + 20; ++day) {
    for (workload::JobInstance& job : driver.DayJobs(day)) {
      pool.push_back(std::move(job));
    }
  }

  const opt::RuleConfig defaults = opt::RuleConfig::Default();
  auto hint = [&](const workload::JobTemplate& tmpl, int arm) {
    const int rule = kActionRules[arm % kArms];
    return sis::HintEntry{.template_name = tmpl.name,
                          .rule_id = rule,
                          .enable = !defaults.IsEnabled(rule)};
  };
  for (int round = 1; round <= kArms; ++round) {
    for (const workload::JobTemplate& tmpl : driver.templates()) {
      if (tmpl.id % 3 != 0) continue;
      if (round == 1) {
        tenant.initial_hints.entries.push_back(hint(tmpl, tmpl.id));
      }
      tenant.rotation.push_back(hint(tmpl, tmpl.id + round));
    }
  }

  for (workload::JobInstance& job : pool) {
    service::RankRequest rank;
    rank.tenant = tenant.name;
    rank.context.AddNamed("tpl:" + job.template_name, 1.0);
    rank.context.AddNamed(job.recurring ? "recurring" : "adhoc", 1.0);
    for (int rule : kActionRules) {
      bandit::RankableAction action;
      action.action_id = "flip_" + std::to_string(rule);
      action.features.AddNamed("rule:" + std::to_string(rule), 1.0);
      rank.actions.push_back(std::move(action));
    }
    tenant.ranks.push_back(std::move(rank));
    tenant.preferred_arm.push_back(
        static_cast<int>(HashString(job.template_name) % kArms));
    service::CompileRequest compile;
    compile.tenant = tenant.name;
    compile.job = std::move(job);
    tenant.compiles.push_back(std::move(compile));
  }
  return tenant;
}

/// Opens every tenant on `service` and installs its initial hints.
void OpenServeTenants(service::AdvisorService& service,
                      const std::vector<ServeTenant>& tenants) {
  for (const ServeTenant& tenant : tenants) {
    auto session = service.OpenTenant(tenant.name);
    if (!session.ok()) Fatal("open serve tenant", session.status());
    auto upload = session->UploadHints(tenant.initial_hints);
    if (!upload.ok()) Fatal("upload initial hints", upload.status());
  }
}

/// Runs `work(c)` on kThreads client threads and joins them.
template <typename Fn>
void OnClients(Fn work) {
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) clients.emplace_back(work, c);
  for (std::thread& client : clients) client.join();
}

/// Client c owns tenants 2c and 2c+1.
constexpr int OwnerOf(int tenant) { return tenant / 2; }

struct ServeFleet {
  std::vector<ServeTenant> tenants;
  std::unique_ptr<service::AdvisorService> service;
};

/// Builds the pools, opens the tenants and warms their caches: every pool
/// job under its steered config, and every job of a hinted template under
/// each of the rotation's configs. serve_mixed's uploads therefore cause
/// no compile misses; with the misses left in, they were about 1% of its
/// compiles and compile_p99_us jumped between 6 and 49 us across seeds.
std::unique_ptr<ServeFleet> BuildServeFleet(uint64_t seed) {
  auto fleet = std::make_unique<ServeFleet>();
  fleet->tenants.resize(kServeTenants);
  OnClients([&](int c) {
    for (int t = 0; t < kServeTenants; ++t) {
      if (OwnerOf(t) == c) {
        fleet->tenants[static_cast<size_t>(t)] = BuildServeTenant(seed, t);
      }
    }
  });
  fleet->service =
      std::make_unique<service::AdvisorService>(BenchOptions(kThreads));
  OpenServeTenants(*fleet->service, fleet->tenants);
  OnClients([&](int c) {
    for (int t = 0; t < kServeTenants; ++t) {
      if (OwnerOf(t) != c) continue;
      const ServeTenant& tenant = fleet->tenants[static_cast<size_t>(t)];
      const engine::ScopeEngine& engine =
          fleet->service->Session(tenant.name)->engine();
      for (const service::CompileRequest& request : tenant.compiles) {
        auto compiled = fleet->service->Compile(request);
        if (!compiled.ok()) Fatal("warm-up compile", compiled.status());
        for (const sis::HintEntry& entry : tenant.rotation) {
          if (entry.template_name != request.job.template_name) continue;
          auto flipped = engine.CompileShared(request.job, entry.ToConfig());
          if (!flipped.ok()) Fatal("warm-up compile", flipped.status());
        }
      }
    }
  });
  return fleet;
}

/// One tenant's deterministic request stream: op i compiles a pool job
/// picked by the stream's own Rng, ranks its four arms and, with writes,
/// rewards the choice, retrains every kTrainEvery ops and uploads a hint
/// every kUploadEvery ops. Every response field that does not depend on
/// timing goes into the digest.
class Stream {
 public:
  Stream(service::AdvisorService* service, ServeTenant* tenant, uint64_t seed,
         bool writes, int prefix_ops)
      : service_(service),
        tenant_(tenant),
        session_(*service->Session(tenant->name)),
        pick_(seed ^ HashString(tenant->name)),
        writes_(writes),
        prefix_ops_(prefix_ops) {}

  void Step(Window* w, CallTotals* t) {
    const int i = next_++;
    const size_t j = pick_.UniformInt(tenant_->compiles.size());

    uint64_t t0 = obs::MonotonicNowNs();
    auto compiled = service_->Compile(tenant_->compiles[j]);
    uint64_t t1 = obs::MonotonicNowNs();
    RecordCompile(w, t, t1 - t0, compiled.ok());
    if (compiled.ok()) {
      digest_.Add(compiled->compilation->est_cost);
      digest_.Add(static_cast<uint64_t>(compiled->hint_applied));
      digest_.Add(static_cast<uint64_t>(compiled->rule_id + 1));
      digest_.Add(static_cast<uint64_t>(compiled->sis_version));
    } else {
      digest_.Add(compiled.status().ToString());
    }

    service::RankRequest& rank = tenant_->ranks[j];
    rank.event_id = 'e';
    rank.event_id += std::to_string(i);
    t0 = obs::MonotonicNowNs();
    auto ranked = service_->Rank(rank);
    t1 = obs::MonotonicNowNs();
    RecordCall(w, t, t1 - t0, ranked.ok());
    t->rank_ns += t1 - t0;
    if (!ranked.ok()) {
      digest_.Add(ranked.status().ToString());
    } else {
      digest_.Add(static_cast<uint64_t>(ranked->chosen_index));
      digest_.Add(ranked->probability);
      digest_.Add(ranked->snapshot_sequence);
    }

    if (writes_ && ranked.ok()) {
      service::RewardRequest reward;
      reward.tenant = tenant_->name;
      reward.event = ranked->event;
      reward.reward = static_cast<int>(ranked->chosen_index) ==
                              tenant_->preferred_arm[j]
                          ? 1.0
                          : 0.0;
      t0 = obs::MonotonicNowNs();
      auto rewarded = service_->Reward(reward);
      t1 = obs::MonotonicNowNs();
      RecordCall(w, t, t1 - t0, rewarded.ok());
      t->reward_ns += t1 - t0;
      digest_.Add(rewarded.ok() ? rewarded->rewarded_events : 0);
    }
    if (writes_ && i % kTrainEvery == kTrainEvery - 1) {
      t0 = obs::MonotonicNowNs();
      const bool published = session_.TrainAndPublish();
      t1 = obs::MonotonicNowNs();
      RecordCall(w, t, t1 - t0, true);
      t->publish_ns += t1 - t0;
      t->publishes += published ? 1 : 0;
      digest_.Add(static_cast<uint64_t>(published));
    }
    if (writes_ && i % kUploadEvery == kUploadEvery - 1) {
      const size_t u = static_cast<size_t>(i / kUploadEvery);
      sis::HintFile file;
      file.day = static_cast<int>(u) + 1;
      file.entries.push_back(tenant_->rotation[u % tenant_->rotation.size()]);
      t0 = obs::MonotonicNowNs();
      auto uploaded = session_.UploadHints(file);
      t1 = obs::MonotonicNowNs();
      RecordCall(w, t, t1 - t0, uploaded.ok());
      t->upload_ns += t1 - t0;
      ++t->uploads;
      if (uploaded.ok()) {
        ++t->uploads_accepted;
        digest_.Add(static_cast<uint64_t>(uploaded->version));
        digest_.Add(static_cast<uint64_t>(uploaded->active_hints));
        digest_.Add(uploaded->snapshot_sequence);
      } else {
        digest_.Add(uploaded.status().ToString());
      }
    }
    if (next_ == prefix_ops_) prefix_digest_ = digest_.value();
  }

  uint64_t digest() const { return digest_.value(); }
  uint64_t prefix_digest() const { return prefix_digest_; }

 private:
  service::AdvisorService* service_;
  ServeTenant* tenant_;
  service::TenantSession session_;
  Rng pick_;
  bool writes_;
  int prefix_ops_;
  int next_ = 0;
  Digest digest_;
  uint64_t prefix_digest_ = 0;
};

WorkloadResult RunServe(const WorkloadOptions& options, bool writes) {
  const int full_ops = writes ? kMixedOpsPerTenant : kHotOpsPerTenant;
  const int ops = std::max(
      kWindows, static_cast<int>(std::lround(full_ops * options.scale)));
  const int prefix_ops = std::max(1, ops / 20);  // first 5% of each stream
  WorkloadResult result;
  result.size_key = Format("tenants=%d ops=%d", kServeTenants, ops);

  double setup_s = 0.0;
  std::unique_ptr<ServeFleet> fleet =
      RepeatSetup([&] { return BuildServeFleet(options.seed); }, &setup_s);

  std::vector<Stream> streams;
  for (ServeTenant& tenant : fleet->tenants) {
    streams.emplace_back(fleet->service.get(), &tenant, options.seed, writes,
                         prefix_ops);
  }
  // windows[c][k]: client c's k-th sixteenth of its ops.
  std::vector<std::vector<Window>> windows(
      kThreads, std::vector<Window>(kWindows));
  std::vector<std::vector<uint64_t>> window_ns(
      kThreads, std::vector<uint64_t>(kWindows));
  std::vector<CallTotals> totals(kThreads);
  const size_t calls_per_window = static_cast<size_t>(ops) / kWindows *
                                  (kServeTenants / kThreads) *
                                  (writes ? 4 : 2);
  for (auto& client : windows) {
    for (Window& w : client) {
      w.calls.Reserve(calls_per_window);
      w.compiles.Reserve(calls_per_window / (writes ? 3 : 2));
    }
  }

  RegistryDelta registry;
  if (options.traced) registry.Begin();
  const uint64_t start = obs::MonotonicNowNs();
  OnClients([&](int c) {
    for (int k = 0; k < kWindows; ++k) {
      Window* w = &windows[static_cast<size_t>(c)][static_cast<size_t>(k)];
      const uint64_t t0 = obs::MonotonicNowNs();
      for (int i = k * ops / kWindows; i < (k + 1) * ops / kWindows; ++i) {
        for (int t = 0; t < kServeTenants; ++t) {
          if (OwnerOf(t) == c) {
            streams[static_cast<size_t>(t)].Step(
                w, &totals[static_cast<size_t>(c)]);
          }
        }
      }
      window_ns[static_cast<size_t>(c)][static_cast<size_t>(k)] =
          obs::MonotonicNowNs() - t0;
    }
  });
  const double wall_s =
      static_cast<double>(obs::MonotonicNowNs() - start) / 1e9;
  if (options.traced) registry.End();
  const double peak_rss_mb = PeakRssMb();

  // Window k of the run is window k of every client, which ran at the same
  // time; its rates are the sum of the clients' rates.
  std::vector<Window> merged(kWindows);
  for (int c = 0; c < kThreads; ++c) {
    for (int k = 0; k < kWindows; ++k) {
      Window& from = windows[static_cast<size_t>(c)][static_cast<size_t>(k)];
      Window& to = merged[static_cast<size_t>(k)];
      const double s =
          window_ns[static_cast<size_t>(c)][static_cast<size_t>(k)] / 1e9;
      to.calls_per_s += static_cast<double>(from.calls.count()) / s;
      to.jobs_per_s += static_cast<double>(from.compiles.count()) / s;
      to.calls.Append(from.calls);
      to.compiles.Append(from.compiles);
      from = Window{};
    }
  }
  CallTotals calls;
  for (const CallTotals& t : totals) calls.Merge(t);

  Digest digest;
  for (const Stream& stream : streams) digest.Add(stream.digest());
  size_t active_hints = 0;
  for (const ServeTenant& tenant : fleet->tenants) {
    active_hints +=
        fleet->service->CurrentSnapshot(tenant.name)->hints->active_hints();
  }
  if (options.traced) {
    result.layers = LayerMetrics(registry, calls, wall_s, active_hints,
                                 PipelineNumbers{});
  }
  result.end_to_end = EndToEnd(setup_s, peak_rss_mb, merged);
  result.attempted = calls.attempted;
  result.failed = calls.failed;
  result.digest = digest.value();
  result.notes.push_back(CountNote(calls, merged, wall_s));

  // Replay: the first 5% of every stream, serially, on a fresh service.
  std::vector<uint64_t> want;
  for (const Stream& stream : streams) want.push_back(stream.prefix_digest());
  streams.clear();
  fleet->service.reset();
  service::AdvisorService replay_service(BenchOptions(1));
  OpenServeTenants(replay_service, fleet->tenants);
  result.replay_ok = true;
  Window unused_window;
  CallTotals unused;
  for (size_t t = 0; t < fleet->tenants.size(); ++t) {
    Stream stream(&replay_service, &fleet->tenants[t], options.seed, writes,
                  prefix_ops);
    for (int i = 0; i < prefix_ops; ++i) stream.Step(&unused_window, &unused);
    if (stream.prefix_digest() != want[t]) result.replay_ok = false;
  }
  result.replay_note =
      Format("first %d ops of each of %d streams at 1 thread", prefix_ops,
             kServeTenants);
  return result;
}

}  // namespace

WorkloadResult RunServeHot(const WorkloadOptions& options) {
  return RunServe(options, /*writes=*/false);
}

WorkloadResult RunServeMixed(const WorkloadOptions& options) {
  return RunServe(options, /*writes=*/true);
}

}  // namespace qobench
