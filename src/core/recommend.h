// Rule Recommendation: the contextual-bandit stage of the pipeline
// (paper Secs. 3.2 and 4.2).
//
// For each job the action set is (1 + S): change nothing, or flip one of the
// S rules in the job span. Rewards are the clipped ratio of default to
// recompiled estimated cost. Learning is off-policy: a uniform-at-random
// logging arm generates the training data, while the learned policy's arm
// decides what moves forward — at the cost of doubling recompilations,
// which is acceptable because recompiles are cheap (Sec. 4.2).
#ifndef QO_CORE_RECOMMEND_H_
#define QO_CORE_RECOMMEND_H_

#include <vector>

#include "bandit/personalizer.h"
#include "core/feature_gen.h"
#include "guard/fault_injector.h"

namespace qo::runtime {
class ParallelRuntime;
}  // namespace qo::runtime

namespace qo::advisor {

/// Outcome category of a recompilation with a rule flip (Table 3 rows).
enum class RecompileOutcome {
  kLowerCost,
  kEqualCost,
  kHigherCost,
  kRecompileFailure,
};

/// One recommendation for one job.
struct Recommendation {
  std::string job_id;
  std::string template_name;
  int template_id = 0;
  /// Rule to flip; -1 means "change nothing" was chosen.
  int rule_id = -1;
  bool enable = false;  ///< flip direction (valid when rule_id >= 0)
  double est_cost_default = 0.0;
  double est_cost_new = 0.0;
  RecompileOutcome outcome = RecompileOutcome::kEqualCost;
  double reward = 1.0;  ///< clipped default/new cost ratio
  /// True when the outcome was forced by the fault injector (chaos runs).
  bool fault_injected = false;
  /// Copy of the instance + span for downstream stages.
  workload::JobInstance instance;
  BitVector256 span;

  bool ImprovesEstimatedCost() const {
    return outcome == RecompileOutcome::kLowerCost;
  }
  opt::RuleConfig ToConfig() const {
    return rule_id < 0 ? opt::RuleConfig::Default()
                       : opt::RuleConfig::DefaultWithFlip(rule_id);
  }
};

struct RecommenderConfig {
  /// Reward clipping bound (Sec. 4.2: "we clip any range greater than 2.0").
  double reward_clip = 2.0;
  /// When false, the acted arm also picks uniformly at random — the Table 3
  /// "Random" baseline.
  bool use_contextual_bandit = true;
  /// When true (always, except in the Sec. 5.2 ablation), jobs whose flip
  /// does not improve estimated cost are short-circuited out.
  bool prune_non_improving = true;
  /// Relative estimated-cost change must be at most this to move forward
  /// (negative = improvement required).
  double max_est_cost_delta = -1e-4;
  /// Uniform logging probes per job per day. The paper logs one; raising it
  /// accelerates off-policy convergence at the cost of extra recompiles.
  int uniform_probes_per_job = 1;
};

struct RecommenderStats {
  size_t jobs = 0;
  size_t lower_cost = 0;
  size_t equal_cost = 0;
  size_t higher_cost = 0;
  size_t recompile_failures = 0;
  size_t noop_chosen = 0;
  size_t forwarded = 0;  ///< recommendations that passed pruning
  /// Reward() calls the Personalizer rejected (should be zero: every probe
  /// rewards its own freshly ranked event).
  size_t reward_failures = 0;
  /// Chaos-run bookkeeping: recompile failures forced by the fault injector
  /// (a subset of recompile_failures) and reward joins it dropped.
  size_t faults_injected = 0;
  size_t rewards_dropped = 0;
};

/// The Recommendation task. Holds the Personalizer handle; one instance
/// lives across pipeline days so the policy keeps learning.
class Recommender {
 public:
  /// `injector` (not owned, may be null) injects deterministic recompile
  /// errors per (job, rule) and drops reward joins per event — the chaos
  /// faults of the Recommendation boundary. Decisions are pure, so a flip
  /// evaluated on a worker and one evaluated inline agree byte-for-byte.
  Recommender(const engine::ScopeEngine* engine,
              bandit::PersonalizerService* personalizer,
              RecommenderConfig config = {},
              const guard::FaultInjector* injector = nullptr);

  /// Processes one day of featurized jobs. Returns recommendations that
  /// survived pruning (candidates for flighting).
  ///
  /// One ordered fan-out over the jobs (runtime::ForEachOrdered, sharded by
  /// template id). Its work function does a job's pure part: the context
  /// features, the (1 + S) action list, the (context x actions) combined
  /// vectors (CombineActionSet, built once and shared by every Rank call
  /// for the job via RankRequest::precombined) and, when the runtime is
  /// parallel, the recompilation of every span flip. Its commit runs the
  /// job's bandit loop — uniform probes, the acting arm, pruning — on the
  /// calling thread in job order, streaming: job i's commit overlaps the
  /// workers' preparation of later jobs. The Personalizer's order-dependent
  /// learning state is only ever touched from the calling thread, so the
  /// output is byte-identical for any thread count. A serial run (null or
  /// single-threaded runtime) compiles a flip only when a probe or the
  /// acting arm picks it.
  std::vector<Recommendation> RecommendDay(
      const std::vector<JobFeatures>& jobs, int day,
      RecommenderStats* stats = nullptr,
      runtime::ParallelRuntime* runtime = nullptr);

  /// Evaluates one specific flip (used by tests and the Table 3 bench).
  /// Thread-safety: const and pure — one recompilation under the flipped
  /// config, deterministic per (job, rule_id); safe to call concurrently.
  Recommendation EvaluateFlip(const JobFeatures& job, int rule_id) const;

 private:
  const engine::ScopeEngine* engine_;
  bandit::PersonalizerService* personalizer_;
  RecommenderConfig config_;
  const guard::FaultInjector* injector_;
};

}  // namespace qo::advisor

#endif  // QO_CORE_RECOMMEND_H_
