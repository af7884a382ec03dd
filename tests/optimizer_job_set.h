// A fixed optimizer workload shared by the tests that pin the optimizer's
// outputs (optimizer_test) and its heap allocations (optimizer_alloc_test):
// generated jobs parsed once, plus the rule configs that reach every wired
// search path.
#ifndef QO_TESTS_OPTIMIZER_JOB_SET_H_
#define QO_TESTS_OPTIMIZER_JOB_SET_H_

#include <vector>

#include "optimizer/rules.h"
#include "scope/compiler.h"
#include "scope/logical_plan.h"
#include "workload/workload.h"

namespace qo {

struct PinnedJob {
  workload::JobInstance job;
  scope::LogicalPlan plan;  ///< the job's bound logical plan
};

/// A selective join over a union of two large extracts, where pushing the
/// join through the union wins (the generated templates never make that
/// the cheapest plan).
inline workload::JobInstance JoinOverUnionJob() {
  workload::JobInstance job;
  job.template_name = "join_over_union";
  job.job_id = "join_over_union_0";
  job.script = R"(
  a = EXTRACT k:long, v:double FROM "fact_a";
  b = EXTRACT k:long, v:double FROM "fact_b";
  u = a UNION ALL b;
  d = EXTRACT pk:long, attr:string FROM "dim";
  j = SELECT * FROM u JOIN d ON k == pk @ 0.001;
  OUTPUT j TO "out";
)";
  for (const char* fact : {"fact_a", "fact_b"}) {
    scope::TableStats t;
    t.true_rows = t.est_rows = 5e7;
    t.avg_row_bytes = 16;
    t.columns["k"] = {1e6, 1e6};
    t.columns["v"] = {1e6, 1e6};
    job.catalog.RegisterTable(fact, t);
  }
  scope::TableStats dim;
  dim.true_rows = dim.est_rows = 1000;
  dim.avg_row_bytes = 40;
  dim.columns["pk"] = {1000, 1000};
  dim.columns["attr"] = {50, 50};
  job.catalog.RegisterTable("dim", dim);
  return job;
}

/// A filter over a join whose predicates read the join's left input: the
/// generated templates filter only before their joins, so this is the job
/// on which the filter-into-join pushdown fires. Its predicates stay off the
/// right input because the true-row model of a join scales its left input
/// alone (rows = left rows x fanout), so a predicate pushed into the right
/// input drops out of the true row count. Not part of PinnedJobs, whose
/// digest and allocation counts it would move.
inline workload::JobInstance FilterOverJoinJob() {
  workload::JobInstance job;
  job.template_name = "filter_over_join";
  job.job_id = "filter_over_join_0";
  job.script = R"(
  f = EXTRACT k:long, v:double, c:string FROM "fact";
  d = EXTRACT pk:long, attr:string FROM "dim";
  j = SELECT * FROM f JOIN d ON k == pk @ 1.5
      WHERE v > 100 @ 0.3 AND c == "x" @ 0.2;
  OUTPUT j TO "out";
)";
  scope::TableStats fact;
  fact.true_rows = fact.est_rows = 2e7;
  fact.avg_row_bytes = 40;
  fact.columns["k"] = {1e5, 1e5};
  fact.columns["v"] = {1e6, 1e6};
  fact.columns["c"] = {100, 100};
  job.catalog.RegisterTable("fact", fact);
  scope::TableStats dim;
  dim.true_rows = dim.est_rows = 1e5;
  dim.avg_row_bytes = 40;
  dim.columns["pk"] = {1e5, 1e5};
  dim.columns["attr"] = {50, 50};
  job.catalog.RegisterTable("dim", dim);
  return job;
}

/// Two days of a small generated workload plus JoinOverUnionJob; jobs that
/// fail to compile in the front end are skipped (none do at this seed).
inline std::vector<PinnedJob> PinnedJobs() {
  workload::WorkloadDriver driver(
      {.num_templates = 90, .jobs_per_day = 50, .seed = 2022});
  std::vector<PinnedJob> out;
  for (int day = 0; day < 2; ++day) {
    for (workload::JobInstance& job : driver.DayJobs(day)) {
      auto plan = scope::CompileSource(job.script, job.catalog);
      if (!plan.ok()) continue;
      out.push_back({std::move(job), std::move(plan).value()});
    }
  }
  workload::JobInstance extra = JoinOverUnionJob();
  auto plan = scope::CompileSource(extra.script, extra.catalog);
  if (plan.ok()) out.push_back({std::move(extra), std::move(plan).value()});
  return out;
}

/// Every rule the optimizer consults, i.e. the ids whose single flip can
/// change a plan (required rules included: flipping one fails the compile).
inline std::vector<int> WiredRules() {
  std::vector<int> ids;
  for (int id = opt::rules::kNormalizeScript; id <= opt::rules::kValidateSchema;
       ++id) {
    ids.push_back(id);
  }
  for (int id = opt::rules::kFilterPushdownBelowProject;
       id <= opt::rules::kTwoPhaseAggregation; ++id) {
    ids.push_back(id);
  }
  for (int id = opt::rules::kEagerAggregationLeft;
       id <= opt::rules::kBroadcastJoinAggressive; ++id) {
    ids.push_back(id);
  }
  for (int id = opt::rules::kScanImpl; id <= opt::rules::kExchangeGatherImpl;
       ++id) {
    ids.push_back(id);
  }
  return ids;
}

/// Default, every wired single flip, and one config with all the
/// off-by-default explorations on (eager aggregation on both sides, join
/// associativity, join-through-union, aggressive broadcast).
inline std::vector<opt::RuleConfig> PinnedConfigs() {
  std::vector<opt::RuleConfig> configs;
  configs.push_back(opt::RuleConfig::Default());
  for (int id : WiredRules()) {
    configs.push_back(opt::RuleConfig::DefaultWithFlip(id));
  }
  opt::RuleConfig explore = opt::RuleConfig::Default();
  for (int id = opt::rules::kEagerAggregationLeft;
       id <= opt::rules::kBroadcastJoinAggressive; ++id) {
    explore.Enable(id);
  }
  configs.push_back(explore);
  return configs;
}

/// True when `config` agrees with `base` on every bit in `consulted`, so a
/// normalized plan exported under `base` is valid for `config`.
inline bool AgreesOn(const opt::RuleConfig& config,
                     const opt::RuleConfig& base,
                     const BitVector256& consulted) {
  return ((config.bits() ^ base.bits()) & consulted).None();
}

}  // namespace qo

#endif  // QO_TESTS_OPTIMIZER_JOB_SET_H_
