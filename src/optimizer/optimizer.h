// The cascades-style SCOPE query optimizer.
//
// Compilation pipeline:
//   1. validate the rule configuration (required rules must be enabled),
//   2. normalization: destructive rewrites on the logical DAG (filter
//      pushdown family, project pruning/merging) gated by their rule bits,
//   3. memo-based top-down exploration (join commute/associativity, eager
//      aggregation, join-through-union) and implementation (hash/broadcast/
//      merge joins, one/two-phase aggregation, exchange enforcers) under a
//      per-group expression budget, starting from a MemoSeed: the groups of
//      the normalized plan, built once and shared by every config that
//      restarts from it,
//   4. winner extraction into a PhysicalPlan plus the *rule signature* — the
//      set of rules that directly contributed to the final plan (Sec. 2.1).
//
// Like SCOPE's optimizer, the search is deliberately not exhaustive (budgets
// and guard heuristics), so flipping a single rule can move the result in
// either direction of estimated cost — the behaviour QO-Advisor steers.
#ifndef QO_OPTIMIZER_OPTIMIZER_H_
#define QO_OPTIMIZER_OPTIMIZER_H_

#include <memory>

#include "common/status.h"
#include "optimizer/cost_model.h"
#include "optimizer/physical_plan.h"
#include "optimizer/rules.h"
#include "scope/catalog.h"
#include "scope/logical_plan.h"

namespace qo::opt {

/// Knobs for the optimizer search.
struct OptimizerOptions {
  /// Maximum logical expressions kept per memo group (exploration budget).
  int max_exprs_per_group = 20;
  /// Broadcast join is considered when the build side is estimated below
  /// this many bytes. The default guard is deliberately conservative (as in
  /// production systems, where a mis-broadcast can take down a stage);
  /// kBroadcastJoinAggressive raises it, which is profitable on the many
  /// instances with mid-sized build sides — if the estimates can be trusted.
  double broadcast_threshold_bytes = 24.0e6;
  double broadcast_threshold_aggressive_bytes = 2.0e9;
  CostParams cost_params;
};

/// The memo's starting point for one validated + normalized plan: a group
/// per reachable plan node, each holding its one base expression and its
/// derived properties (shared schema, estimated and true statistics), plus
/// the root group ids. Built once by the compile that normalizes the plan
/// and never modified afterwards, so any number of searches, on any number
/// of threads, start from the same seed. Defined in optimizer.cc.
struct MemoSeed;

/// A validated + normalized plan, exported by OptimizeTracked so the
/// cross-config memo can restart other configs after the rewrite phase.
/// The normalized logical plan itself is not kept: the seed is everything
/// a restart reads. Copying a NormalizedPlan shares its seed.
struct NormalizedPlan {
  BitVector256 fired;  ///< normalization rules that changed the plan
  std::shared_ptr<const MemoSeed> seed;  ///< null until exported
};

/// Compiles logical plans into distributed physical plans under a given rule
/// configuration.
class Optimizer {
 public:
  explicit Optimizer(const scope::Catalog& catalog,
                     OptimizerOptions options = {});

  /// Optimizes `plan`; returns the physical plan, its estimated cost and the
  /// rule signature. CompileError when the configuration admits no valid
  /// plan (required rule disabled, or no enabled implementation for some
  /// operator).
  Result<CompilationOutput> Optimize(const scope::LogicalPlan& plan,
                                     const RuleConfig& config) const;

  /// Optimize with cross-config memo instrumentation. Every rule bit the
  /// validate+normalize phase consults is recorded into `norm_consulted`,
  /// every bit the post-normalization search consults into `post_consulted`
  /// (either may be null), and once validation passes `normalized_out` (if
  /// non-null) receives the normalized plan for reuse via
  /// OptimizeFromNormalized.
  /// The compilation output is a pure function of (plan, catalog, options,
  /// values of the consulted bits), which is the memo's soundness argument.
  Result<CompilationOutput> OptimizeTracked(
      const scope::LogicalPlan& plan, const RuleConfig& config,
      BitVector256* norm_consulted, BitVector256* post_consulted,
      NormalizedPlan* normalized_out) const;

  /// Re-runs only the post-normalization search over a previously exported
  /// NormalizedPlan, recording consulted bits into `post_consulted` (may be
  /// null). Only valid for configs that agree with the exporting config on
  /// every bit it consulted during validate+normalize. The search reads the
  /// seed without copying it (no payload copies, no statistics derivation)
  /// and never writes it, so concurrent restarts may share one plan.
  Result<CompilationOutput> OptimizeFromNormalized(
      const NormalizedPlan& normalized, const RuleConfig& config,
      BitVector256* post_consulted) const;

  const OptimizerOptions& options() const { return options_; }

 private:
  const scope::Catalog& catalog_;
  OptimizerOptions options_;
};

}  // namespace qo::opt

#endif  // QO_OPTIMIZER_OPTIMIZER_H_
