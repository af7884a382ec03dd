#include "core/recommend.h"

#include <algorithm>
#include <map>

#include "common/hash.h"
#include "obs/span.h"
#include "runtime/runtime.h"

namespace qo::advisor {

namespace {

/// Action ids: index 0 is the no-op, index i>0 flips span bit i-1.
int RuleIdOfAction(const std::vector<int>& span_bits, size_t action_index) {
  if (action_index == 0) return -1;
  return span_bits[action_index - 1];
}

/// The flip-specific outcome of one recompilation — everything EvaluateFlip
/// derives beyond the job's identity fields. The parallel pre-evaluation
/// caches these slim records instead of full Recommendations (which copy
/// the job instance and its catalog per span bit).
struct FlipEval {
  bool enable = false;
  double est_cost_new = 0.0;
  RecompileOutcome outcome = RecompileOutcome::kEqualCost;
  double reward = 1.0;
  bool fault_injected = false;
};

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
                          int rule_id,
                          const guard::FaultInjector* injector) {
  FlipEval e;
  double est_cost_default = DefaultEstCost(engine, job);
  e.enable = !opt::RuleConfig::Default().IsEnabled(rule_id);
  // Injected recompile errors: pure per (job, rule), so the parallel
  // pre-evaluation cache and any inline evaluation reach the same verdict.
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
  // CompileShared: a repeated evaluation of this flip (across pre-evaluation,
  // the bandit loop and later experiment passes) is an O(1) cache hit.
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
/// (possibly cached) flip evaluation.
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

}  // namespace

Recommender::Recommender(const engine::ScopeEngine* engine,
                         bandit::PersonalizerService* personalizer,
                         RecommenderConfig config,
                         const guard::FaultInjector* injector)
    : engine_(engine),
      personalizer_(personalizer),
      config_(config),
      injector_(injector) {}

std::vector<bandit::RankableAction> Recommender::BuildActions(
    const BitVector256& span) {
  std::vector<bandit::RankableAction> actions;
  bandit::RankableAction noop;
  noop.action_id = "noop";
  noop.features = bandit::BuildActionFeatures(-1, /*is_noop=*/true);
  actions.push_back(std::move(noop));
  for (int bit : span.Positions()) {
    bandit::RankableAction a;
    a.action_id = "flip_" + std::to_string(bit);
    a.features = bandit::BuildActionFeatures(bit, /*is_noop=*/false);
    actions.push_back(std::move(a));
  }
  return actions;
}

Recommendation Recommender::EvaluateFlip(const JobFeatures& job,
                                         int rule_id) const {
  double est_cost_default = DefaultEstCost(*engine_, job);
  if (rule_id < 0) {
    // No-op action: no recompilation, identity outcome.
    FlipEval noop;
    noop.est_cost_new = est_cost_default;
    return MaterializeFlip(job, rule_id, noop, est_cost_default);
  }
  return MaterializeFlip(
      job, rule_id,
      EvaluateFlipCore(*engine_, config_.reward_clip, job, rule_id, injector_),
      est_cost_default);
}

std::vector<Recommendation> Recommender::RecommendDay(
    const std::vector<JobFeatures>& jobs, int day, RecommenderStats* stats,
    runtime::ParallelRuntime* runtime) {
  QO_OBS_SPAN("recommend");
  // Recompilation is the expensive half of this task; the bandit math is
  // cheap but stateful (Rank/Reward mutate the Personalizer, and a retrain
  // between two jobs changes every later choice). So: pre-evaluate every
  // span flip across the pool, keep the bandit loop serial, and serve its
  // EvaluateFlip calls from the cache.
  std::vector<std::map<int, FlipEval>> flip_cache;
  if (runtime != nullptr && runtime->parallel()) {
    flip_cache = runtime->TransformOrdered<std::map<int, FlipEval>>(
        jobs.size(),
        [&](size_t i) { return static_cast<uint64_t>(jobs[i].row.template_id); },
        [](size_t i) { return static_cast<double>(i); },
        [&](size_t i) {
          std::map<int, FlipEval> flips;
          for (int bit : jobs[i].span.Positions()) {
            flips.emplace(bit, EvaluateFlipCore(*engine_, config_.reward_clip,
                                                jobs[i], bit, injector_));
          }
          return flips;
        });
  }
  auto evaluate = [&](size_t job_index, const JobFeatures& job,
                      int rule) -> Recommendation {
    if (rule >= 0 && !flip_cache.empty()) {
      auto it = flip_cache[job_index].find(rule);
      if (it != flip_cache[job_index].end()) {
        return MaterializeFlip(job, rule, it->second,
                               DefaultEstCost(*engine_, job));
      }
    }
    return EvaluateFlip(job, rule);
  };

  RecommenderStats local;
  std::vector<Recommendation> forwarded;
  for (size_t job_index = 0; job_index < jobs.size(); ++job_index) {
    const JobFeatures& job = jobs[job_index];
    ++local.jobs;
    bandit::FeatureVector context =
        bandit::BuildContextFeatures(job.ToContext());
    std::vector<bandit::RankableAction> actions = BuildActions(job.span);
    // Combined-feature cache: one (context x actions) combine per job,
    // shared (by pointer) across every probe and the acting arm below, and
    // from there with the Personalizer's event log and trainer.
    std::vector<std::shared_ptr<const bandit::SparseVector>> combined =
        bandit::CombineActionSet(context, actions);
    std::vector<int> span_bits = job.span.Positions();

    // --- Logging arm: uniform-at-random, always rewarded. ---
    for (int probe_idx = 0; probe_idx < config_.uniform_probes_per_job;
         ++probe_idx) {
      bandit::RankRequest log_request;
      log_request.event_id = "u_" + std::to_string(day) + "_" +
                             std::to_string(probe_idx) + "_" + job.row.job_id;
      log_request.context = context;
      log_request.actions = actions;
      log_request.explore_uniform = true;
      log_request.precombined = combined;
      auto log_rank = personalizer_->Rank(log_request);
      if (log_rank.ok()) {
        int rule = RuleIdOfAction(span_bits, log_rank->chosen_index);
        Recommendation probe = evaluate(job_index, job, rule);
        if (probe.fault_injected) ++local.faults_injected;
        // Injected reward-join drops: the probe ran but its outcome never
        // made it back to the learner (paper Sec. 4.2's reward join going
        // stale). The event stays unrewarded in the log.
        if (injector_ != nullptr && injector_->armed() &&
            injector_->ShouldInject(guard::FaultSite::kRewardJoin, day,
                                    log_rank->event_id)) {
          ++local.rewards_dropped;
        } else if (!personalizer_->Reward(log_rank->event, probe.reward)
                        .ok()) {
          // Typed join: the id rode back on the RankResponse, so the reward
          // lands with one log index — no string hashing.
          ++local.reward_failures;
        }
      }
    }

    // --- Acting arm: learned policy (or uniform for the random baseline). ---
    bandit::RankRequest act_request;
    act_request.event_id =
        "g_" + std::to_string(day) + "_" + job.row.job_id;
    act_request.context = std::move(context);
    act_request.actions = std::move(actions);
    act_request.explore_uniform = !config_.use_contextual_bandit;
    act_request.precombined = std::move(combined);
    auto act_rank = personalizer_->Rank(act_request);
    if (!act_rank.ok()) continue;
    int rule = RuleIdOfAction(span_bits, act_rank->chosen_index);
    if (rule < 0) {
      ++local.noop_chosen;
      ++local.equal_cost;
      continue;
    }
    Recommendation rec = evaluate(job_index, job, rule);
    if (rec.fault_injected) ++local.faults_injected;
    switch (rec.outcome) {
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
    double delta = rec.est_cost_default > 0.0
                       ? rec.est_cost_new / rec.est_cost_default - 1.0
                       : 0.0;
    bool pass = rec.outcome == RecompileOutcome::kLowerCost &&
                delta <= config_.max_est_cost_delta;
    if (!config_.prune_non_improving) {
      pass = rec.outcome != RecompileOutcome::kRecompileFailure;
    }
    if (pass) {
      ++local.forwarded;
      forwarded.push_back(std::move(rec));
    }
  }
  if (stats != nullptr) *stats = local;
  return forwarded;
}

}  // namespace qo::advisor
