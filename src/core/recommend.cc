#include "core/recommend.h"

#include <algorithm>

#include "common/hash.h"
#include "obs/span.h"
#include "runtime/runtime.h"

namespace qo::advisor {

namespace {

/// The flip-specific outcome of one recompilation — everything EvaluateFlip
/// derives beyond the job's identity fields. The bandit loop works on these
/// slim records and builds a full Recommendation (which copies the job
/// instance and its catalog) only for a forwarded pick.
struct FlipEval {
  bool enable = false;
  double est_cost_new = 0.0;
  RecompileOutcome outcome = RecompileOutcome::kEqualCost;
  double reward = 1.0;
  bool fault_injected = false;
};

/// The no-op action's outcome: no recompilation, identity cost.
FlipEval NoopEval(double est_cost_default) {
  FlipEval noop;
  noop.est_cost_new = est_cost_default;
  return noop;
}

/// The default-configuration estimated cost of a job. JobFeatures built by
/// GenerateFeatures always carry the span's default compilation; features
/// assembled by hand (tools, tests) may leave it null, in which case this
/// compiles the default through the engine's cache (an O(1) hit whenever
/// the span was ever computed). 0.0 when even the default fails to compile.
double DefaultEstCost(const engine::ScopeEngine& engine,
                      const JobFeatures& job) {
  if (job.default_compilation != nullptr) {
    return job.default_compilation->est_cost;
  }
  auto compiled =
      engine.CompileShared(job.row.instance, opt::RuleConfig::Default());
  return compiled.ok() ? (*compiled)->est_cost : 0.0;
}

FlipEval EvaluateFlipCore(const engine::ScopeEngine& engine,
                          double reward_clip, const JobFeatures& job,
                          double est_cost_default, int rule_id,
                          const guard::FaultInjector* injector) {
  FlipEval e;
  e.enable = !opt::RuleConfig::Default().IsEnabled(rule_id);
  // Injected recompile errors: pure per (job, rule), so a worker's
  // evaluation and an inline one reach the same verdict.
  if (injector != nullptr && injector->armed() &&
      injector->ShouldInject(
          guard::FaultSite::kCompile, job.row.day,
          HashString(job.row.job_id) ^
              (static_cast<uint64_t>(rule_id) * 0x9e3779b97f4a7c15ULL))) {
    e.outcome = RecompileOutcome::kRecompileFailure;
    e.est_cost_new = 0.0;
    e.reward = 0.0;
    e.fault_injected = true;
    return e;
  }
  // CompileShared: a repeated evaluation of this flip (across probes, the
  // acting arm and later experiment passes) is an O(1) cache hit.
  auto recompiled = engine.CompileShared(
      job.row.instance, opt::RuleConfig::DefaultWithFlip(rule_id));
  if (!recompiled.ok()) {
    e.outcome = RecompileOutcome::kRecompileFailure;
    e.est_cost_new = 0.0;
    e.reward = 0.0;
    return e;
  }
  e.est_cost_new = (*recompiled)->est_cost;
  const double kTolerance = 1e-9;
  if (e.est_cost_new < est_cost_default * (1.0 - kTolerance)) {
    e.outcome = RecompileOutcome::kLowerCost;
  } else if (e.est_cost_new > est_cost_default * (1.0 + kTolerance)) {
    e.outcome = RecompileOutcome::kHigherCost;
  } else {
    e.outcome = RecompileOutcome::kEqualCost;
  }
  // Reward: fractional reduction in estimated cost, expressed as the ratio
  // default/new and clipped to bound outliers (Sec. 4.2).
  double ratio =
      e.est_cost_new > 0.0 ? est_cost_default / e.est_cost_new : 0.0;
  e.reward = std::clamp(ratio, 0.0, reward_clip);
  return e;
}

/// Rebuilds the full Recommendation from the job's identity fields plus a
/// flip evaluation.
Recommendation MaterializeFlip(const JobFeatures& job, int rule_id,
                               const FlipEval& e, double est_cost_default) {
  Recommendation rec;
  rec.job_id = job.row.job_id;
  rec.template_name = job.row.normalized_job_name;
  rec.template_id = job.row.template_id;
  rec.rule_id = rule_id;
  rec.instance = job.row.instance;
  rec.span = job.span;
  rec.est_cost_default = est_cost_default;
  rec.enable = e.enable;
  rec.est_cost_new = e.est_cost_new;
  rec.outcome = e.outcome;
  rec.reward = e.reward;
  rec.fault_injected = e.fault_injected;
  return rec;
}

/// Builds the (1 + S) action list for a job span, given its set bits.
/// Action 0 is the no-op; action i > 0 flips span bit i - 1.
std::vector<bandit::RankableAction> BuildActions(
    const std::vector<int>& span_bits) {
  std::vector<bandit::RankableAction> actions;
  actions.reserve(span_bits.size() + 1);
  bandit::RankableAction noop;
  noop.action_id = "noop";
  noop.features = bandit::BuildActionFeatures(-1, /*is_noop=*/true);
  actions.push_back(std::move(noop));
  for (int bit : span_bits) {
    bandit::RankableAction a;
    a.action_id = "flip_" + std::to_string(bit);
    a.features = bandit::BuildActionFeatures(bit, /*is_noop=*/false);
    actions.push_back(std::move(a));
  }
  return actions;
}

/// Everything pure the bandit loop needs for one job, built by
/// RecommendDay's work function (on a worker when the runtime is parallel).
struct JobPrep {
  /// Context, actions and the shared (context x action) combined vectors,
  /// laid out as one Rank request that every probe and the acting arm reuse.
  bandit::RankRequest request;
  std::vector<int> span_bits;
  double est_cost_default = 0.0;
  /// flips[k] evaluates span_bits[k]. Empty on a serial run, which compiles
  /// a flip only when a probe or the acting arm picks it.
  std::vector<FlipEval> flips;
};

}  // namespace

Recommender::Recommender(const engine::ScopeEngine* engine,
                         bandit::PersonalizerService* personalizer,
                         RecommenderConfig config,
                         const guard::FaultInjector* injector)
    : engine_(engine),
      personalizer_(personalizer),
      config_(config),
      injector_(injector) {}

Recommendation Recommender::EvaluateFlip(const JobFeatures& job,
                                         int rule_id) const {
  double est_cost_default = DefaultEstCost(*engine_, job);
  if (rule_id < 0) {
    return MaterializeFlip(job, rule_id, NoopEval(est_cost_default),
                           est_cost_default);
  }
  return MaterializeFlip(job, rule_id,
                         EvaluateFlipCore(*engine_, config_.reward_clip, job,
                                          est_cost_default, rule_id,
                                          injector_),
                         est_cost_default);
}

std::vector<Recommendation> Recommender::RecommendDay(
    const std::vector<JobFeatures>& jobs, int day, RecommenderStats* stats,
    runtime::ParallelRuntime* runtime) {
  QO_OBS_SPAN("recommend");
  // Recompilation and featurization are pure; the bandit math is cheap but
  // stateful (Rank/Reward mutate the Personalizer, and a retrain between
  // two jobs changes every later choice). So the work function prepares a
  // job off the calling thread and the commit runs its bandit loop in job
  // order. Commits stream: job i's Rank/Reward calls overlap the workers'
  // preparation of later jobs.
  const bool evaluate_all_flips = runtime != nullptr && runtime->parallel();
  auto prepare = [&](size_t i) {
    const JobFeatures& job = jobs[i];
    JobPrep prep;
    prep.span_bits = job.span.Positions();
    prep.est_cost_default = DefaultEstCost(*engine_, job);
    prep.request.context = bandit::BuildContextFeatures(job.ToContext());
    prep.request.actions = BuildActions(prep.span_bits);
    // Combined-feature cache: one (context x actions) combine per job,
    // shared (by pointer) across every probe and the acting arm, and from
    // there with the Personalizer's event log and trainer.
    prep.request.precombined =
        bandit::CombineActionSet(prep.request.context, prep.request.actions);
    if (evaluate_all_flips) {
      prep.flips.reserve(prep.span_bits.size());
      for (int bit : prep.span_bits) {
        prep.flips.push_back(EvaluateFlipCore(*engine_, config_.reward_clip,
                                              job, prep.est_cost_default, bit,
                                              injector_));
      }
    }
    return prep;
  };

  RecommenderStats local;
  std::vector<Recommendation> forwarded;
  auto commit = [&](size_t job_index, JobPrep&& prep) {
    const JobFeatures& job = jobs[job_index];
    ++local.jobs;
    // The outcome of action `index` (see BuildActions).
    auto flip_of = [&](size_t index) -> FlipEval {
      if (index == 0) return NoopEval(prep.est_cost_default);
      if (!prep.flips.empty()) return prep.flips[index - 1];
      return EvaluateFlipCore(*engine_, config_.reward_clip, job,
                              prep.est_cost_default,
                              prep.span_bits[index - 1], injector_);
    };
    bandit::RankRequest& request = prep.request;

    // --- Logging arm: uniform-at-random, always rewarded. ---
    request.explore_uniform = true;
    for (int probe_idx = 0; probe_idx < config_.uniform_probes_per_job;
         ++probe_idx) {
      request.event_id = "u_" + std::to_string(day) + "_" +
                         std::to_string(probe_idx) + "_" + job.row.job_id;
      auto log_rank = personalizer_->Rank(request);
      if (!log_rank.ok()) continue;
      FlipEval probe = flip_of(log_rank->chosen_index);
      if (probe.fault_injected) ++local.faults_injected;
      // Injected reward-join drops: the probe ran but its outcome never
      // made it back to the learner (paper Sec. 4.2's reward join going
      // stale). The event stays unrewarded in the log.
      if (injector_ != nullptr && injector_->armed() &&
          injector_->ShouldInject(guard::FaultSite::kRewardJoin, day,
                                  log_rank->event_id)) {
        ++local.rewards_dropped;
      } else if (!personalizer_->Reward(log_rank->event, probe.reward).ok()) {
        // Typed join: the id rode back on the RankResponse, so the reward
        // lands with one log index — no string hashing.
        ++local.reward_failures;
      }
    }

    // --- Acting arm: learned policy (or uniform for the random baseline). ---
    request.event_id = "g_" + std::to_string(day) + "_" + job.row.job_id;
    request.explore_uniform = !config_.use_contextual_bandit;
    auto act_rank = personalizer_->Rank(request);
    if (!act_rank.ok()) return;
    if (act_rank->chosen_index == 0) {
      ++local.noop_chosen;
      ++local.equal_cost;
      return;
    }
    FlipEval act = flip_of(act_rank->chosen_index);
    if (act.fault_injected) ++local.faults_injected;
    switch (act.outcome) {
      case RecompileOutcome::kLowerCost:
        ++local.lower_cost;
        break;
      case RecompileOutcome::kEqualCost:
        ++local.equal_cost;
        break;
      case RecompileOutcome::kHigherCost:
        ++local.higher_cost;
        break;
      case RecompileOutcome::kRecompileFailure:
        ++local.recompile_failures;
        break;
    }
    // Short-circuit: only flips that improve estimated cost move forward
    // (Sec. 5.6), unless pruning is disabled for the Sec. 5.2 ablation.
    double delta = prep.est_cost_default > 0.0
                       ? act.est_cost_new / prep.est_cost_default - 1.0
                       : 0.0;
    bool pass = act.outcome == RecompileOutcome::kLowerCost &&
                delta <= config_.max_est_cost_delta;
    if (!config_.prune_non_improving) {
      pass = act.outcome != RecompileOutcome::kRecompileFailure;
    }
    if (pass) {
      ++local.forwarded;
      forwarded.push_back(
          MaterializeFlip(job, prep.span_bits[act_rank->chosen_index - 1],
                          act, prep.est_cost_default));
    }
  };
  runtime::ForEachOrdered<JobPrep>(
      runtime, jobs.size(),
      [&](size_t i) { return static_cast<uint64_t>(jobs[i].row.template_id); },
      [](size_t i) { return static_cast<double>(i); }, prepare, commit);
  if (stats != nullptr) *stats = local;
  return forwarded;
}

}  // namespace qo::advisor
