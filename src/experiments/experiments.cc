#include "experiments/experiments.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/feature_gen.h"
#include "core/recommend.h"
#include "obs/report.h"
#include "obs/span.h"

namespace qo::experiments {

namespace {

using advisor::JobFeatures;
using advisor::Recommendation;
using advisor::RecompileOutcome;
using advisor::Recommender;

double MetricOf(const exec::JobMetrics& m, Metric metric) {
  return metric == Metric::kLatency ? m.latency_sec : m.pn_hours;
}

/// Runs a paired A/B of `flip` against the default config for one job.
/// Returns false on compile failure.
bool AbDeltas(const engine::ScopeEngine& engine,
              const workload::JobInstance& job, const opt::RuleConfig& flip,
              uint64_t salt, exec::JobMetrics* base_out,
              exec::JobMetrics* cand_out) {
  auto base = engine.Run(job, opt::RuleConfig::Default(), salt * 2 + 1);
  auto cand = engine.Run(job, flip, salt * 2 + 2);
  if (!base.ok() || !cand.ok()) return false;
  *base_out = base->metrics;
  *cand_out = cand->metrics;
  return true;
}

/// Featurizes one day's recurring jobs (spans + default compilations).
std::vector<JobFeatures> DayFeatures(
    const ExperimentEnv& env, int day,
    advisor::JobFilter filter = advisor::JobFilter::kRecurringOnly) {
  return advisor::GenerateFeatures(env.engine(), env.BuildDayView(day),
                                   nullptr, env.runtime(), filter);
}

runtime::RuntimeOptions HarnessRuntimeOptions(const ExperimentConfig& config) {
  runtime::RuntimeOptions options = runtime::RuntimeOptions::FromEnv();
  if (config.threads > 0) options.num_threads = config.threads;
  return options;
}

/// A recommender wired to a throwaway personalizer, for experiments that
/// need EvaluateFlip without learning.
struct FlipEvaluator {
  explicit FlipEvaluator(const engine::ScopeEngine* engine)
      : personalizer({.seed = 17}), recommender(engine, &personalizer, {}) {}
  bandit::PersonalizerService personalizer;
  Recommender recommender;
};

/// All single flips of a job's span that lower the estimated cost — the
/// population that survives the Recommendation stage and reaches flighting.
std::vector<Recommendation> ImprovingFlips(const FlipEvaluator& eval,
                                           const JobFeatures& f) {
  std::vector<Recommendation> out;
  for (int bit : f.span.Positions()) {
    Recommendation rec = eval.recommender.EvaluateFlip(f, bit);
    if (rec.outcome == RecompileOutcome::kLowerCost) out.push_back(rec);
  }
  return out;
}

/// The single best (highest-reward) cost-improving flip, or nullopt.
std::optional<Recommendation> BestImprovingFlip(const FlipEvaluator& eval,
                                                const JobFeatures& f) {
  std::vector<Recommendation> flips = ImprovingFlips(eval, f);
  if (flips.empty()) return std::nullopt;
  auto best = std::max_element(flips.begin(), flips.end(),
                               [](const Recommendation& a,
                                  const Recommendation& b) {
                                 return a.reward < b.reward;
                               });
  return *best;
}

}  // namespace

ExperimentEnv::ExperimentEnv(ExperimentConfig config)
    : config_(config),
      driver_({.num_templates = config.num_templates,
               .jobs_per_day = config.jobs_per_day,
               .seed = config.seed}),
      runtime_(HarnessRuntimeOptions(config)),
      injector_(config.faults) {}

ExperimentEnv::~ExperimentEnv() {
  // Emitted here rather than at process exit: the engine's collector is
  // still registered, so the line carries every series.
  EmitRunReport(-1);
}

bool ExperimentEnv::EmitRunReport(int day) const {
  std::unique_ptr<obs::RunReportWriter> writer = obs::RunReportWriter::FromEnv();
  if (writer == nullptr) return false;
  return writer->Append(obs::RunReportJsonLine(
      obs::ObsLabelFromEnv("experiment_env"), day,
      obs::Registry::Get().Snapshot()));
}

telemetry::WorkloadView ExperimentEnv::BuildDayView(
    int day, const sis::StatsInsightService* sis) const {
  QO_OBS_SPAN("build_day_view");
  telemetry::WorkloadView view;
  view.day = day;
  // Each commit moves its job into the view row: work(i) is done with it by
  // then, and the shard and priority callbacks ran at submission.
  std::vector<workload::JobInstance> jobs = driver_.DayJobs(day);
  runtime::ForEachOrdered<Result<engine::JobRunResult>>(
      &runtime_, jobs.size(),
      [&](size_t i) { return static_cast<uint64_t>(jobs[i].template_id); },
      [](size_t i) { return static_cast<double>(i); },
      [&](size_t i) -> Result<engine::JobRunResult> {
        const workload::JobInstance& job = jobs[i];
        bool hinted =
            sis != nullptr && sis->LookupHint(job.template_name).has_value();
        opt::RuleConfig config = hinted
                                     ? sis->ConfigForTemplate(job.template_name)
                                     : opt::RuleConfig::Default();
        // Injected steered-compile failure: the hinted configuration fails
        // on this occurrence, SCOPE falls back to the default plan. Pure per
        // (day, job), so the atomic total is thread-count-independent.
        if (hinted && injector_.armed() &&
            injector_.ShouldInject(guard::FaultSite::kCompile, day,
                                   job.job_id)) {
          config = opt::RuleConfig::Default();
          steered_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        }
        auto result = engine_.Run(job, config, static_cast<uint64_t>(day));
        if (!result.ok()) {
          // A hinted configuration may fail on a drifted occurrence; SCOPE
          // falls back to the default configuration in that case.
          result = engine_.Run(job, opt::RuleConfig::Default(),
                               static_cast<uint64_t>(day));
        }
        return result;
      },
      [&](size_t i, Result<engine::JobRunResult>&& result) {
        if (!result.ok()) return;
        exec::JobMetrics metrics = result->metrics;
        // Injected hint regression: sticky per template (day-independent
        // key), modeling a hint that is genuinely bad in production — every
        // steered occurrence runs inflated until the watchdog reverts it.
        if (sis != nullptr && injector_.armed() &&
            sis->LookupHint(jobs[i].template_name).has_value() &&
            injector_.ShouldInject(guard::FaultSite::kHintRegression,
                                   /*day=*/0, jobs[i].template_name)) {
          metrics.pn_hours *= injector_.config().hint_regression_factor;
          metrics.latency_sec *= injector_.config().hint_regression_factor;
          ++regressions_injected_;
        }
        view.rows.push_back(telemetry::MakeViewRow(
            std::move(jobs[i]), *result->compilation, metrics));
      });
  return view;
}

// ---------------------------------------------------------------------------
// Fig. 2 / Fig. 4.
// ---------------------------------------------------------------------------

StabilityResult RunRecurringStability(const ExperimentEnv& env, Metric metric,
                                      int week0_day, int week1_day) {
  StabilityResult result;
  FlipEvaluator eval(&env.engine());
  Rng rng(env.config().seed ^ 0xf00d);

  // Week1 occurrences by template.
  std::unordered_map<int, workload::JobInstance> week1;
  for (auto& job : env.driver().DayJobs(week1_day)) {
    if (job.recurring) week1.try_emplace(job.template_id, std::move(job));
  }

  size_t improving = 0, regressed = 0;
  for (const JobFeatures& f : DayFeatures(env, week0_day)) {
    auto it = week1.find(f.row.template_id);
    if (it == week1.end()) continue;
    std::vector<int> bits = f.span.Positions();
    int rule = bits[rng.UniformInt(bits.size())];
    opt::RuleConfig flip = opt::RuleConfig::DefaultWithFlip(rule);
    exec::JobMetrics b0, c0, b1, c1;
    if (!AbDeltas(env.engine(), f.row.instance, flip, rng.Next(), &b0, &c0)) {
      continue;
    }
    double w0 = exec::RelativeDelta(MetricOf(c0, metric), MetricOf(b0, metric));
    if (w0 >= 0.0) continue;  // keep only week0 improvements, as in Fig. 2
    if (!AbDeltas(env.engine(), it->second, flip, rng.Next(), &b1, &c1)) {
      continue;
    }
    double w1 = exec::RelativeDelta(MetricOf(c1, metric), MetricOf(b1, metric));
    result.week0_week1.emplace_back(w0, w1);
    ++improving;
    if (w1 > 0.0) ++regressed;
  }
  result.regress_fraction =
      improving == 0 ? 0.0
                     : static_cast<double>(regressed) /
                           static_cast<double>(improving);
  return result;
}

// ---------------------------------------------------------------------------
// Fig. 3 / Fig. 5.
// ---------------------------------------------------------------------------

VarianceResult RunAAVariance(const ExperimentEnv& env, Metric metric,
                             int day) {
  VarianceResult result;
  std::vector<std::pair<double, double>> raw;  // (mean latency, cv)
  double max_mean_latency = 0.0;
  for (const auto& job : env.driver().DayJobs(day)) {
    auto compiled = env.engine().CompileShared(job, opt::RuleConfig::Default());
    if (!compiled.ok()) continue;
    RunningStats value, latency;
    // One prepared profile serves all A/A runs of the job; salts 1000..
    // match the historical per-run loop exactly.
    for (const exec::JobMetrics& m : env.engine().ExecuteRuns(
             job, **compiled, 1000, env.config().aa_runs)) {
      value.Add(MetricOf(m, metric));
      latency.Add(m.latency_sec);
    }
    raw.emplace_back(latency.mean(), value.cv());
    max_mean_latency = std::max(max_mean_latency, latency.mean());
  }
  size_t above = 0;
  for (auto& [t, cv] : raw) {
    result.time_vs_cv.emplace_back(
        max_mean_latency > 0 ? t / max_mean_latency : 0.0, cv);
    if (cv > 0.05) ++above;
  }
  result.fraction_above_5pct =
      raw.empty() ? 0.0
                  : static_cast<double>(above) / static_cast<double>(raw.size());
  return result;
}

// ---------------------------------------------------------------------------
// Fig. 6.
// ---------------------------------------------------------------------------

CostLatencyResult RunCostVsLatency(const ExperimentEnv& env, int days) {
  CostLatencyResult result;
  FlipEvaluator eval(&env.engine());
  Rng rng(env.config().seed ^ 0xcafe);
  size_t improved = 0, regressed = 0;
  for (int day = 0; day < days; ++day) {
    for (const JobFeatures& f : DayFeatures(env, day)) {
      std::optional<Recommendation> best = BestImprovingFlip(eval, f);
      if (!best.has_value()) continue;
      const Recommendation& rec = *best;
      exec::JobMetrics base, cand;
      if (!AbDeltas(env.engine(), f.row.instance, rec.ToConfig(), rng.Next(),
                    &base, &cand)) {
        continue;
      }
      double cost_delta = rec.est_cost_new / rec.est_cost_default - 1.0;
      double latency_delta =
          exec::RelativeDelta(cand.latency_sec, base.latency_sec);
      result.cost_vs_latency.emplace_back(cost_delta, latency_delta);
      ++improved;
      if (latency_delta > 0.0) ++regressed;
    }
  }
  std::vector<double> xs, ys;
  for (auto& [x, y] : result.cost_vs_latency) {
    xs.push_back(x);
    ys.push_back(y);
  }
  result.correlation = PearsonCorrelation(xs, ys);
  result.improved_cost_latency_regress_fraction =
      improved == 0 ? 0.0
                    : static_cast<double>(regressed) /
                          static_cast<double>(improved);
  return result;
}

// ---------------------------------------------------------------------------
// Fig. 7 / Fig. 8.
// ---------------------------------------------------------------------------

IoPnResult RunIoVsPn(const ExperimentEnv& env, IoMetric metric, int days) {
  IoPnResult result;
  FlipEvaluator eval(&env.engine());
  Rng rng(env.config().seed ^ 0xbeef);
  for (int day = 0; day < days; ++day) {
    for (const JobFeatures& f : DayFeatures(env, day)) {
      // Every cost-improving flip of this job reaches flighting (this is the
      // historical flighting telemetry the paper's Figs. 7/8 are drawn from).
      for (const Recommendation& rec : ImprovingFlips(eval, f)) {
        exec::JobMetrics base, cand;
        if (!AbDeltas(env.engine(), f.row.instance, rec.ToConfig(),
                      rng.Next(), &base, &cand)) {
          continue;
        }
        double io_delta =
            metric == IoMetric::kDataRead
                ? exec::RelativeDelta(cand.data_read_bytes,
                                      base.data_read_bytes)
                : exec::RelativeDelta(cand.data_written_bytes,
                                      base.data_written_bytes);
        double pn_delta = exec::RelativeDelta(cand.pn_hours, base.pn_hours);
        result.io_vs_pn.emplace_back(io_delta, pn_delta);
      }
    }
  }
  std::vector<double> xs, ys;
  for (auto& [x, y] : result.io_vs_pn) {
    xs.push_back(x);
    ys.push_back(y);
  }
  result.correlation = PearsonCorrelation(xs, ys);
  auto fit = FitLinear(xs, ys);
  if (fit.ok()) result.trend = fit.value();
  return result;
}

// ---------------------------------------------------------------------------
// Fig. 9.
// ---------------------------------------------------------------------------

namespace {

/// One (flight, future outcome) observation for the validation study.
struct FlightObservation {
  advisor::ValidationSample sample;
};

std::vector<FlightObservation> CollectFlightObservations(
    const ExperimentEnv& env, int first_day, int last_day, Rng* rng) {
  std::vector<FlightObservation> out;
  FlipEvaluator eval(&env.engine());
  for (int day = first_day; day < last_day; ++day) {
    for (const JobFeatures& f : DayFeatures(env, day)) {
      // The validation dataset is drawn from the flips the pipeline actually
      // flights: recommendations with improved estimated cost (Sec. 4.3).
      for (const Recommendation& rec : ImprovingFlips(eval, f)) {
        // The flight run.
        exec::JobMetrics base, cand;
        if (!AbDeltas(env.engine(), f.row.instance, rec.ToConfig(),
                      rng->Next(), &base, &cand)) {
          continue;
        }
        flight::FlightResult flight;
        flight.data_read_delta =
            exec::RelativeDelta(cand.data_read_bytes, base.data_read_bytes);
        flight.data_written_delta = exec::RelativeDelta(
            cand.data_written_bytes, base.data_written_bytes);
        flight.pn_hours_delta =
            exec::RelativeDelta(cand.pn_hours, base.pn_hours);
        // The "future" occurrence: a later run of the same recurring job.
        exec::JobMetrics fb, fc;
        if (!AbDeltas(env.engine(), f.row.instance, rec.ToConfig(),
                      rng->Next(), &fb, &fc)) {
          continue;
        }
        FlightObservation obs;
        obs.sample = advisor::MakeSample(
            flight, exec::RelativeDelta(fc.pn_hours, fb.pn_hours));
        out.push_back(obs);
      }
    }
  }
  return out;
}

}  // namespace

ValidationAccuracyResult RunValidationAccuracy(const ExperimentEnv& env,
                                               int train_days,
                                               double threshold,
                                               int test_days) {
  ValidationAccuracyResult result;
  Rng rng(env.config().seed ^ 0x7e57);
  auto train = CollectFlightObservations(env, 0, train_days, &rng);
  std::vector<advisor::ValidationSample> samples;
  samples.reserve(train.size());
  for (auto& obs : train) samples.push_back(obs.sample);
  advisor::ValidationModel model(
      {.accept_threshold = threshold, .min_training_samples = 10});
  if (!model.Train(samples).ok()) return result;

  auto test = CollectFlightObservations(env, train_days,
                                        train_days + test_days, &rng);
  result.test_jobs = test.size();
  size_t below_threshold = 0, below_zero = 0;
  std::vector<std::vector<double>> test_features;
  std::vector<double> test_targets;
  for (const auto& obs : test) {
    double predicted = model.PredictPnDelta(obs.sample.data_read_delta,
                                            obs.sample.data_written_delta);
    double actual = obs.sample.future_pn_delta;
    result.predicted_vs_actual.emplace_back(predicted, actual);
    test_features.push_back(
        {obs.sample.data_read_delta, obs.sample.data_written_delta});
    test_targets.push_back(actual);
    if (predicted < threshold) {
      ++result.accepted;
      if (actual < threshold) ++below_threshold;
      if (actual < 0.0) ++below_zero;
    }
  }
  if (result.accepted > 0) {
    result.frac_actual_below_threshold =
        static_cast<double>(below_threshold) /
        static_cast<double>(result.accepted);
    result.frac_actual_below_zero = static_cast<double>(below_zero) /
                                    static_cast<double>(result.accepted);
  }
  result.model_r2 = model.regression().Score(test_features, test_targets);
  return result;
}

// ---------------------------------------------------------------------------
// Table 2 + Figs. 10/11/12.
// ---------------------------------------------------------------------------

AggregateImpactResult RunAggregateImpact(const ExperimentEnv& env,
                                         int train_days, int eval_days) {
  AggregateImpactResult result;
  sis::StatsInsightService sis;
  advisor::PipelineConfig pipeline_config;
  pipeline_config.flighting.total_budget_machine_hours = 1.0e6;
  pipeline_config.validation.min_training_samples = 30;
  pipeline_config.recommender.uniform_probes_per_job = 3;
  pipeline_config.personalizer.retrain_interval = 128;
  pipeline_config.personalizer.epsilon = 0.15;
  // Borrow the harness's pool instead of spawning a second one.
  advisor::QoAdvisorPipeline pipeline(&env.engine(), &sis, pipeline_config,
                                      env.runtime());

  for (int day = 0; day < train_days; ++day) {
    telemetry::WorkloadView view = env.BuildDayView(day, &sis);
    pipeline.RunDay(view).ok();
  }
  result.active_hints = sis.active_hints();

  double base_pn = 0, cand_pn = 0, base_lat = 0, cand_lat = 0;
  double base_vert = 0, cand_vert = 0;
  Rng rng(env.config().seed ^ 0xab1e);
  // Collect the hint-matched evaluation jobs serially (the salt sequence
  // must match the serial path: one Next() per matched job, in day/job
  // order), then fan the paired A/B runs out across the pool.
  struct EvalJob {
    workload::JobInstance job;
    opt::RuleConfig config;
    uint64_t salt = 0;
  };
  std::vector<EvalJob> eval_jobs;
  for (int day = train_days; day < train_days + eval_days; ++day) {
    for (const auto& job : env.driver().DayJobs(day)) {
      auto hint = sis.LookupHint(job.template_name);
      if (!hint.has_value()) continue;
      eval_jobs.push_back({job, hint->ToConfig(), rng.Next()});
    }
  }
  struct AbOutcome {
    bool ok = false;
    exec::JobMetrics base;
    exec::JobMetrics cand;
  };
  runtime::ForEachOrdered<AbOutcome>(
      env.runtime(), eval_jobs.size(),
      [&](size_t i) {
        return static_cast<uint64_t>(eval_jobs[i].job.template_id);
      },
      [](size_t i) { return static_cast<double>(i); },
      [&](size_t i) {
        AbOutcome out;
        out.ok = AbDeltas(env.engine(), eval_jobs[i].job, eval_jobs[i].config,
                          eval_jobs[i].salt, &out.base, &out.cand);
        return out;
      },
      [&](size_t, AbOutcome&& out) {
        if (!out.ok) return;
        const exec::JobMetrics& base = out.base;
        const exec::JobMetrics& cand = out.cand;
        ++result.matched_jobs;
        base_pn += base.pn_hours;
        cand_pn += cand.pn_hours;
        base_lat += base.latency_sec;
        cand_lat += cand.latency_sec;
        base_vert += base.vertices;
        cand_vert += cand.vertices;
        result.pn_deltas.push_back(
            exec::RelativeDelta(cand.pn_hours, base.pn_hours));
        result.latency_deltas.push_back(
            exec::RelativeDelta(cand.latency_sec, base.latency_sec));
        result.vertices_deltas.push_back(exec::RelativeDelta(
            static_cast<double>(cand.vertices),
            static_cast<double>(base.vertices)));
      });
  result.pn_hours_reduction = exec::RelativeDelta(cand_pn, base_pn);
  result.latency_reduction = exec::RelativeDelta(cand_lat, base_lat);
  result.vertices_reduction = exec::RelativeDelta(cand_vert, base_vert);
  std::sort(result.pn_deltas.begin(), result.pn_deltas.end());
  std::sort(result.latency_deltas.begin(), result.latency_deltas.end());
  std::sort(result.vertices_deltas.begin(), result.vertices_deltas.end());
  return result;
}

// ---------------------------------------------------------------------------
// Table 3.
// ---------------------------------------------------------------------------

RandomVsCbResult RunRandomVsCb(const ExperimentEnv& env, int cb_train_days,
                               int eval_day) {
  RandomVsCbResult result;
  // Train the bandit through the Recommendation task's off-policy loop,
  // with extra uniform probes per job to accelerate convergence.
  bandit::PersonalizerService personalizer(
      {.epsilon = 0.05, .seed = env.config().seed, .retrain_interval = 128});
  advisor::RecommenderConfig rec_config;
  rec_config.uniform_probes_per_job = 5;
  Recommender recommender(&env.engine(), &personalizer, rec_config);
  for (int day = 0; day < cb_train_days; ++day) {
    recommender.RecommendDay(DayFeatures(env, day), day, nullptr,
                             env.runtime());
  }
  personalizer.Retrain();

  Rng rng(env.config().seed ^ 0x7ab1e3);
  std::vector<JobFeatures> features =
      DayFeatures(env, eval_day, advisor::JobFilter::kAll);
  telemetry::WorkloadView all_view = env.BuildDayView(eval_day);
  result.jobs_total = all_view.rows.size();
  result.jobs_with_span = features.size();

  auto tally = [](FlipOutcomeCounts* counts, const Recommendation& rec) {
    switch (rec.outcome) {
      case RecompileOutcome::kLowerCost:
        ++counts->lower_cost;
        counts->total_est_cost += rec.est_cost_new;
        break;
      case RecompileOutcome::kEqualCost:
        ++counts->equal_cost;
        counts->total_est_cost += rec.est_cost_default;
        break;
      case RecompileOutcome::kHigherCost:
        ++counts->higher_cost;
        counts->total_est_cost += rec.est_cost_new;
        break;
      case RecompileOutcome::kRecompileFailure:
        ++counts->recompile_failures;
        // Failed recompilations fall back to the default plan's cost.
        counts->total_est_cost += rec.est_cost_default;
        break;
    }
  };

  FlipEvaluator eval(&env.engine());
  for (const JobFeatures& f : features) {
    result.default_total_est_cost += f.default_compilation->est_cost;
    std::vector<int> bits = f.span.Positions();
    // Random arm.
    int random_rule = bits[rng.UniformInt(bits.size())];
    tally(&result.random, eval.recommender.EvaluateFlip(f, random_rule));
    // CB arm: greedy choice over the learned policy (action 0 = no-op).
    bandit::RankRequest request;
    request.event_id = "t3_" + f.row.job_id;
    request.context = bandit::BuildContextFeatures(f.ToContext());
    bandit::RankableAction noop;
    noop.action_id = "noop";
    noop.features = bandit::BuildActionFeatures(-1, true);
    request.actions.push_back(std::move(noop));
    for (int bit : bits) {
      bandit::RankableAction a;
      a.action_id = std::to_string(bit);
      a.features = bandit::BuildActionFeatures(bit, false);
      request.actions.push_back(std::move(a));
    }
    auto rank = personalizer.Rank(request);
    int cb_rule = -1;
    if (rank.ok() && rank->chosen_index > 0) {
      cb_rule = bits[rank->chosen_index - 1];
    }
    tally(&result.cb, eval.recommender.EvaluateFlip(f, cb_rule));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Sec. 5.2 ablation.
// ---------------------------------------------------------------------------

CostFilterAblationResult RunCostFilterAblation(const ExperimentEnv& env,
                                               int day) {
  CostFilterAblationResult result;
  std::vector<JobFeatures> features = DayFeatures(env, day);

  auto run_arm = [&](bool with_filter, double budget_hours, size_t* requested,
                     double* budget, size_t* timeouts) {
    bandit::PersonalizerService personalizer({.seed = 23});
    advisor::RecommenderConfig rec_config;
    rec_config.use_contextual_bandit = false;  // random flips, as in Sec. 5.2
    rec_config.prune_non_improving = with_filter;
    Recommender recommender(&env.engine(), &personalizer, rec_config);
    std::vector<Recommendation> recs =
        recommender.RecommendDay(features, day, nullptr, env.runtime());
    *requested = recs.size();
    flight::FlightingConfig fc;
    fc.total_budget_machine_hours = budget_hours;
    fc.queue_capacity = 512;
    flight::FlightingService flighting(&env.engine(), fc, env.runtime());
    std::vector<flight::FlightRequest> requests;
    for (const auto& rec : recs) {
      flight::FlightRequest req;
      req.job = rec.instance;
      req.candidate = rec.ToConfig();
      req.est_cost_delta = rec.est_cost_default > 0.0
                               ? rec.est_cost_new / rec.est_cost_default - 1.0
                               : 0.0;
      requests.push_back(std::move(req));
    }
    auto flights = flighting.FlightBatch(std::move(requests), 99);
    for (const auto& fl : flights) {
      // "Timeouts" in the Sec. 5.2 sense: jobs the budget could not serve —
      // per-job timeouts plus outright budget rejections.
      if (fl.outcome == flight::FlightOutcome::kTimeout ||
          fl.outcome == flight::FlightOutcome::kBudgetRejected) {
        ++(*timeouts);
      }
    }
    *budget = flighting.budget_used_hours();
  };

  // The daily budget is provisioned for the filtered pipeline (2x headroom
  // over what it actually consumes); the unfiltered arm runs under the same
  // provision and blows through it.
  run_arm(true, 1.0e9, &result.flights_requested_with_filter,
          &result.budget_hours_with_filter, &result.timeouts_with_filter);
  double provisioned = std::max(1.0, 2.0 * result.budget_hours_with_filter);
  run_arm(true, provisioned, &result.flights_requested_with_filter,
          &result.budget_hours_with_filter, &result.timeouts_with_filter);
  run_arm(false, provisioned, &result.flights_requested_without_filter,
          &result.budget_hours_without_filter,
          &result.timeouts_without_filter);
  return result;
}

}  // namespace qo::experiments
