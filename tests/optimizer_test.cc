// Optimizer tests: rule registry invariants, configurations, cardinality
// derivation, cost model, plan shapes, signatures, and a property sweep over
// all 256 single-rule flips.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/optimizer.h"
#include "optimizer/rules.h"
#include "optimizer_job_set.h"
#include "reference_compile.h"
#include "runtime/runtime.h"
#include "scope/compiler.h"

namespace qo::opt {
namespace {

// ---------------------------------------------------------------------------
// Rule registry and configurations.
// ---------------------------------------------------------------------------

TEST(RuleRegistryTest, Has256RulesInFourCategories) {
  const auto& reg = RuleRegistry::Get();
  size_t total = 0;
  for (auto cat :
       {RuleCategory::kRequired, RuleCategory::kOnByDefault,
        RuleCategory::kOffByDefault, RuleCategory::kImplementation}) {
    total += reg.ByCategory(cat).size();
    EXPECT_EQ(reg.ByCategory(cat).size(),
              static_cast<size_t>(reg.CategoryMask(cat).Count()));
  }
  EXPECT_EQ(total, 256u);
}

TEST(RuleRegistryTest, CategoryMasksArePartition) {
  const auto& reg = RuleRegistry::Get();
  BitVector256 all = reg.CategoryMask(RuleCategory::kRequired) |
                     reg.CategoryMask(RuleCategory::kOnByDefault) |
                     reg.CategoryMask(RuleCategory::kOffByDefault) |
                     reg.CategoryMask(RuleCategory::kImplementation);
  EXPECT_EQ(all.Count(), 256);
  EXPECT_TRUE((reg.CategoryMask(RuleCategory::kRequired) &
               reg.CategoryMask(RuleCategory::kOnByDefault))
                  .None());
}

TEST(RuleRegistryTest, BehavioralRulesHaveNames) {
  const auto& reg = RuleRegistry::Get();
  EXPECT_EQ(reg.name(rules::kJoinCommute), "JoinCommute");
  EXPECT_EQ(reg.name(rules::kEagerAggregationLeft), "EagerAggregationLeft");
  EXPECT_EQ(reg.name(rules::kHashJoinImpl), "HashJoinImpl");
  EXPECT_EQ(reg.category(rules::kEagerAggregationLeft),
            RuleCategory::kOffByDefault);
  // Merge join / stream agg are off-by-default alternative implementations.
  EXPECT_EQ(reg.category(rules::kMergeJoinImpl), RuleCategory::kOffByDefault);
  EXPECT_EQ(reg.category(rules::kStreamAggImpl), RuleCategory::kOffByDefault);
}

TEST(RuleConfigTest, DefaultEnablesExpectedCategories) {
  RuleConfig config = RuleConfig::Default();
  EXPECT_TRUE(config.IsEnabled(rules::kNormalizeScript));
  EXPECT_TRUE(config.IsEnabled(rules::kFilterPushdownIntoJoinLeft));
  EXPECT_TRUE(config.IsEnabled(rules::kHashJoinImpl));
  EXPECT_FALSE(config.IsEnabled(rules::kEagerAggregationLeft));
  EXPECT_FALSE(config.IsEnabled(rules::kBroadcastJoinAggressive));
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_TRUE(config.DiffFromDefault().empty());
}

TEST(RuleConfigTest, SingleFlipDiff) {
  RuleConfig config = RuleConfig::DefaultWithFlip(rules::kJoinAssociativity);
  EXPECT_TRUE(config.IsEnabled(rules::kJoinAssociativity));
  EXPECT_EQ(config.DiffFromDefault(),
            std::vector<int>{rules::kJoinAssociativity});
  config.Flip(rules::kJoinAssociativity);
  EXPECT_EQ(config, RuleConfig::Default());
}

TEST(RuleConfigTest, ValidateRejectsDisabledRequiredRule) {
  RuleConfig config = RuleConfig::DefaultWithFlip(rules::kBindReferences);
  auto status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCompileError());
  EXPECT_NE(status.message().find("BindReferences"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cardinality derivation.
// ---------------------------------------------------------------------------

scope::Catalog CardCatalog() {
  scope::Catalog catalog;
  scope::TableStats t;
  t.true_rows = 10000;
  t.est_rows = 5000;  // optimizer sees a stale estimate
  t.avg_row_bytes = 50;
  t.columns["k"] = {100, 80};
  t.columns["v"] = {1000, 900};
  catalog.RegisterTable("t", t);
  return catalog;
}

scope::Schema CardSchema() {
  scope::Schema s;
  s.columns = {{Sym("k"), scope::ColumnType::kLong},
               {Sym("v"), scope::ColumnType::kDouble}};
  return s;
}

TEST(CardinalityTest, ScanUsesModeSpecificRows) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  StatsDeriver tru(catalog, StatsMode::kTrue);
  EXPECT_DOUBLE_EQ(est.Scan(Sym("t"), CardSchema()).rows, 5000);
  EXPECT_DOUBLE_EQ(tru.Scan(Sym("t"), CardSchema()).rows, 10000);
  EXPECT_DOUBLE_EQ(est.Scan(Sym("t"), CardSchema()).NdvOf(Sym("k")), 80);
  EXPECT_DOUBLE_EQ(tru.Scan(Sym("t"), CardSchema()).NdvOf(Sym("k")), 100);
}

TEST(CardinalityTest, FilterTrueModeUsesAnnotation) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  StatsDeriver tru(catalog, StatsMode::kTrue);
  RelStats in_est = est.Scan(Sym("t"), CardSchema());
  RelStats in_tru = tru.Scan(Sym("t"), CardSchema());
  scope::BoundPredicate pred;
  pred.column = Sym("k");
  pred.op = scope::CompareOp::kEq;
  pred.literal = "5";
  pred.true_selectivity = 0.5;
  // Estimated: 1/ndv_est(k) = 1/80. True: the annotation.
  EXPECT_NEAR(est.Filter(in_est, {pred}).rows, 5000.0 / 80.0, 1e-9);
  EXPECT_NEAR(tru.Filter(in_tru, {pred}).rows, 5000.0, 1e-9);
}

TEST(CardinalityTest, FilterHeuristicsByOperator) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  RelStats in = est.Scan(Sym("t"), CardSchema());
  auto sel_of = [&](scope::CompareOp op) {
    scope::BoundPredicate p;
    p.column = Sym("k");
    p.op = op;
    p.literal = "1";
    return est.PredicateSelectivity(p, in);
  };
  EXPECT_NEAR(sel_of(scope::CompareOp::kEq), 1.0 / 80, 1e-12);
  EXPECT_NEAR(sel_of(scope::CompareOp::kNe), 1.0 - 1.0 / 80, 1e-12);
  EXPECT_NEAR(sel_of(scope::CompareOp::kLt), 1.0 / 3.0, 1e-12);
}

TEST(CardinalityTest, JoinEstimateVsTrueFanout) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  StatsDeriver tru(catalog, StatsMode::kTrue);
  RelStats l_est = est.Scan(Sym("t"), CardSchema());
  RelStats l_tru = tru.Scan(Sym("t"), CardSchema());
  // est: |L||R| / max(ndv). true: L * fanout.
  RelStats j_est = est.Join(l_est, l_est, Sym("k"), Sym("k"), 2.0);
  RelStats j_tru = tru.Join(l_tru, l_tru, Sym("k"), Sym("k"), 2.0);
  EXPECT_NEAR(j_est.rows, 5000.0 * 5000.0 / 80.0, 1e-6);
  EXPECT_NEAR(j_tru.rows, 10000.0 * 2.0, 1e-6);
}

TEST(CardinalityTest, AggregateGroupsCappedByRows) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  RelStats in = est.Scan(Sym("t"), CardSchema());
  RelStats agg = est.Aggregate(in, {Sym("k")}, {});
  EXPECT_NEAR(agg.rows, 80.0, 1e-9);  // ndv(k)
  RelStats global = est.Aggregate(in, std::vector<qo::Symbol>{}, {});
  EXPECT_DOUBLE_EQ(global.rows, 1.0);
}

TEST(CardinalityTest, PartialAggregateBoundedByGroupsTimesPartitions) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  RelStats in = est.Scan(Sym("t"), CardSchema());
  RelStats partial = est.PartialAggregate(in, {Sym("k")}, 10);
  EXPECT_NEAR(partial.rows, 800.0, 1e-9);  // 80 groups x 10 partitions
  RelStats one_part = est.PartialAggregate(in, {Sym("k")}, 1);
  EXPECT_NEAR(one_part.rows, 80.0, 1e-9);
}

TEST(CardinalityTest, UnionAddsRows) {
  scope::Catalog catalog = CardCatalog();
  StatsDeriver est(catalog, StatsMode::kEstimated);
  RelStats in = est.Scan(Sym("t"), CardSchema());
  EXPECT_DOUBLE_EQ(est.UnionAll(in, in).rows, 10000.0);
}

// ---------------------------------------------------------------------------
// Cost model.
// ---------------------------------------------------------------------------

TEST(CostModelTest, ChoosePartitionsClampsAndScales) {
  EXPECT_EQ(ChoosePartitions(0), 1);
  EXPECT_EQ(ChoosePartitions(256.0e6), 1);
  EXPECT_EQ(ChoosePartitions(257.0e6), 2);
  EXPECT_EQ(ChoosePartitions(1.0e15), 500);
}

TEST(CostModelTest, BroadcastCostGrowsWithConsumers) {
  CostModel model;
  PhysicalNode node;
  node.kind = PhysOpKind::kExchangeBroadcast;
  node.est_rows = 1000;
  node.est_bytes = 1.0e6;
  node.partitions = 10;
  const double rows[] = {1000};
  const double bytes[] = {1.0e6};
  double c10 = model.LocalCost(node, rows, bytes);
  node.partitions = 100;
  double c100 = model.LocalCost(node, rows, bytes);
  EXPECT_GT(c100, c10 * 5);
}

TEST(CostModelTest, MergeJoinIncludesSortCost) {
  CostModel model;
  PhysicalNode hash, merge;
  hash.kind = PhysOpKind::kHashJoin;
  merge.kind = PhysOpKind::kMergeJoin;
  hash.partitions = merge.partitions = 4;
  const double rows[] = {1.0e7, 1.0e7};
  const double bytes[] = {1.0e9, 1.0e9};
  EXPECT_GT(model.LocalCost(merge, rows, bytes),
            model.LocalCost(hash, rows, bytes));
}

// ---------------------------------------------------------------------------
// End-to-end optimization properties.
// ---------------------------------------------------------------------------

scope::Catalog PlanCatalog() {
  scope::Catalog catalog;
  scope::TableStats fact;
  fact.true_rows = 5e7;
  fact.est_rows = 6e7;
  fact.avg_row_bytes = 80;
  fact.columns["k"] = {2e5, 1.5e5};
  fact.columns["grp"] = {50, 45};
  fact.columns["v"] = {1e6, 1e6};
  catalog.RegisterTable("fact", fact);
  scope::TableStats dim;
  dim.true_rows = 2e6;
  dim.est_rows = 2.2e6;
  dim.avg_row_bytes = 40;
  dim.columns["pk"] = {2e6, 2.2e6};
  dim.columns["attr"] = {300, 280};
  catalog.RegisterTable("dim", dim);
  return catalog;
}

const char* kPlanScript = R"(
  f = EXTRACT k:long, grp:string, v:double FROM "fact";
  d = EXTRACT pk:long, attr:string FROM "dim";
  fd = SELECT * FROM f JOIN d ON k == pk @ 1.0 WHERE grp == "g" @ 0.02;
  agg = SELECT attr, SUM(v) AS total FROM fd GROUP BY attr;
  OUTPUT agg TO "out";
)";

TEST(OptimizerPlanTest, DefaultPlanIsWellFormed) {
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok()) << logical.status();
  Optimizer optimizer(catalog);
  auto out = optimizer.Optimize(*logical, RuleConfig::Default());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->est_cost, 0);
  // Root must be the Output operator; all children ids must be valid.
  ASSERT_EQ(out->plan.roots.size(), 1u);
  EXPECT_EQ(out->plan.node(out->plan.roots[0]).kind, PhysOpKind::kOutput);
  for (const auto& node : out->plan.nodes) {
    for (int c : node.children) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, static_cast<int>(out->plan.size()));
    }
    EXPECT_GE(node.partitions, 1);
    EXPECT_GE(node.est_rows, 0);
    EXPECT_GE(node.true_rows, 0);
  }
  // Filter was pushed into the scan by normalization.
  bool scan_with_pred = false;
  for (const auto& node : out->plan.nodes) {
    if (node.kind == PhysOpKind::kScan && !node.predicates.empty()) {
      scan_with_pred = true;
    }
  }
  EXPECT_TRUE(scan_with_pred) << out->plan.ToString();
}

TEST(OptimizerPlanTest, SignatureContainsUsedImplementations) {
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  auto out = optimizer.Optimize(*logical, RuleConfig::Default());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->signature.Test(rules::kScanImpl));
  EXPECT_TRUE(out->signature.Test(rules::kOutputImpl));
  EXPECT_TRUE(out->signature.Test(rules::kHashAggImpl));
  // Join implemented somehow.
  EXPECT_TRUE(out->signature.Test(rules::kHashJoinImpl) ||
              out->signature.Test(rules::kBroadcastJoinImpl) ||
              out->signature.Test(rules::kMergeJoinImpl));
  // Required normalization rules always present.
  EXPECT_TRUE(out->signature.Test(rules::kNormalizeScript));
  // Disabled rules can never appear in the signature.
  EXPECT_FALSE(out->signature.Test(rules::kEagerAggregationLeft));
}

TEST(OptimizerPlanTest, DisablingFilterPushdownKeepsFilterAboveScan) {
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  auto config = RuleConfig::Default();
  config.Disable(rules::kFilterIntoScan);
  auto out = optimizer.Optimize(*logical, config);
  ASSERT_TRUE(out.ok());
  for (const auto& node : out->plan.nodes) {
    if (node.kind == PhysOpKind::kScan) {
      EXPECT_TRUE(node.predicates.empty());
    }
  }
  EXPECT_FALSE(out->signature.Test(rules::kFilterIntoScan));
}

TEST(OptimizerPlanTest, EnablingOffByDefaultRuleNeverRaisesEstCost) {
  // Adding alternatives to the search space can only help the estimate.
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  auto base = optimizer.Optimize(*logical, RuleConfig::Default());
  ASSERT_TRUE(base.ok());
  for (int rule :
       RuleRegistry::Get().ByCategory(RuleCategory::kOffByDefault)) {
    auto flipped =
        optimizer.Optimize(*logical, RuleConfig::DefaultWithFlip(rule));
    ASSERT_TRUE(flipped.ok()) << RuleRegistry::Get().name(rule);
    EXPECT_LE(flipped->est_cost, base->est_cost * (1.0 + 1e-9))
        << RuleRegistry::Get().name(rule);
  }
}

// Property sweep: flipping each of the 256 rules either produces a valid
// plan (positive cost, valid roots) or a clean CompileError — never a crash
// or a malformed result.
class AllFlipsTest : public ::testing::TestWithParam<int> {};

TEST_P(AllFlipsTest, FlipIsSafe) {
  static const scope::Catalog catalog = PlanCatalog();
  static const auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  int rule = GetParam();
  auto out = optimizer.Optimize(*logical,
                                RuleConfig::DefaultWithFlip(rule));
  if (RuleRegistry::Get().category(rule) == RuleCategory::kRequired) {
    EXPECT_FALSE(out.ok());
    return;
  }
  if (out.ok()) {
    EXPECT_GT(out->est_cost, 0);
    EXPECT_FALSE(out->plan.roots.empty());
  } else {
    EXPECT_TRUE(out.status().IsCompileError()) << out.status();
  }
}

INSTANTIATE_TEST_SUITE_P(All256, AllFlipsTest, ::testing::Range(0, 256));

TEST(OptimizerPlanTest, DeterministicAcrossRepeatedCalls) {
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  auto a = optimizer.Optimize(*logical, RuleConfig::Default());
  auto b = optimizer.Optimize(*logical, RuleConfig::Default());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->est_cost, b->est_cost);
  EXPECT_EQ(a->signature, b->signature);
  EXPECT_EQ(a->plan.ToString(), b->plan.ToString());
}

// ---------------------------------------------------------------------------
// Cross-config memo golden: the memo is an invisible accelerator. Outputs
// must be byte-identical with it on vs off, at any thread count.
// ---------------------------------------------------------------------------

workload::JobInstance MemoJob() {
  workload::JobInstance job;
  job.template_name = "memo_golden";
  job.job_id = "memo_golden_0";
  job.script = kPlanScript;
  job.catalog = PlanCatalog();
  return job;
}

std::vector<RuleConfig> MemoConfigs() {
  std::vector<RuleConfig> configs;
  configs.push_back(RuleConfig::Default());
  // An unwired placeholder rule: never consulted, so the memo's full tier
  // can serve this config from the default-config compile.
  configs.push_back(RuleConfig::DefaultWithFlip(100));
  // A consulted off-by-default exploration rule (post-normalization phase):
  // eligible for the normalized tier, not the full tier.
  configs.push_back(RuleConfig::DefaultWithFlip(rules::kEagerAggregationLeft));
  // A consulted normalization rule: changes the normalized plan itself.
  RuleConfig no_pushdown = RuleConfig::Default();
  no_pushdown.Disable(rules::kFilterIntoScan);
  configs.push_back(no_pushdown);
  return configs;
}

std::string OutputKey(const CompilationOutput& out) {
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%.17g", out.est_cost);
  return out.plan.ToString() + "|" + cost + "|" + out.signature.ToString();
}

TEST(CrossConfigMemoTest, OutputsIdenticalToReferenceCompile) {
  workload::JobInstance job = MemoJob();
  obs::Registry::Get().ZeroAllForTest();
  engine::ScopeEngine with_memo;

  for (const RuleConfig& config : MemoConfigs()) {
    auto a = with_memo.CompileShared(job, config);
    auto b = ReferenceCompile(job, config);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(OutputKey(**a), OutputKey(*b));
  }

  // The config sweep must actually have exercised the memo: config 100 is
  // never consulted (full-tier hit) and the exploration flip reuses the
  // normalized plan (normalized-tier hit).
  const obs::MetricsSnapshot snap = obs::Registry::Get().Snapshot();
  EXPECT_GT(snap.SeriesValue("optimizer.memo.full_hits"), 0.0);
  EXPECT_GT(snap.SeriesValue("optimizer.memo.norm_hits"), 0.0);
  EXPECT_GT(snap.SeriesValue("optimizer.memo.misses"), 0.0);
}

TEST(CrossConfigMemoTest, ThreadCountDoesNotChangeOutputs) {
  workload::JobInstance job = MemoJob();
  std::vector<RuleConfig> configs = MemoConfigs();

  std::vector<std::string> expected;
  for (const RuleConfig& config : configs) {
    auto out = ReferenceCompile(job, config);
    ASSERT_TRUE(out.ok()) << out.status();
    expected.push_back(OutputKey(*out));
  }

  // Same sweep fanned out over 4 worker threads, twice over so later
  // iterations race against fully warmed memo tiers.
  engine::ScopeEngine threaded;
  runtime::ParallelRuntime pool({.num_threads = 4});
  std::vector<std::string> got = pool.TransformOrdered<std::string>(
      configs.size() * 2, [](size_t i) { return i; },
      [](size_t) { return 0.0; },
      [&](size_t i) {
        auto out = threaded.CompileShared(job, configs[i % configs.size()]);
        return out.ok() ? OutputKey(**out) : out.status().ToString();
      });
  ASSERT_EQ(got.size(), expected.size() * 2);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i % expected.size()]) << "config " << i;
  }
}

TEST(OptimizerPlanTest, TrueRowsUseAnnotationsNotEstimates) {
  scope::Catalog catalog = PlanCatalog();
  auto logical = scope::CompileSource(kPlanScript, catalog);
  ASSERT_TRUE(logical.ok());
  Optimizer optimizer(catalog);
  auto out = optimizer.Optimize(*logical, RuleConfig::Default());
  ASSERT_TRUE(out.ok());
  // The scan of "fact" must carry est 6e7-ish and true 5e7-ish rows.
  for (const auto& node : out->plan.nodes) {
    if (node.kind == PhysOpKind::kScan && SymName(node.table_path) == "fact" &&
        node.predicates.empty()) {
      EXPECT_DOUBLE_EQ(node.est_rows, 6e7);
      EXPECT_DOUBLE_EQ(node.true_rows, 5e7);
    }
  }
}


// ---------------------------------------------------------------------------
// Pinned outputs: the memo tests above compare the engine against
// ReferenceCompile, and both run this optimizer, so a plan change inside the
// search would pass them. This digest pins the optimizer's own outputs over a
// fixed job set; it changes only when a plan, cost or signature does.
// ---------------------------------------------------------------------------

// What OutputKey's plan dump leaves out and the simulator reads: each
// node's predicates, projections, grouping, output path, ground-truth and
// size annotations, local cost and schema.
std::string NodeDetails(const PhysicalPlan& plan) {
  std::string out;
  char num[32];
  auto add = [&](double v) {
    std::snprintf(num, sizeof(num), "%.17g,", v);
    out += num;
  };
  for (const PhysicalNode& n : plan.nodes) {
    for (const scope::BoundPredicate& p : n.predicates) {
      out += p.ToString();
      add(p.true_selectivity);
    }
    out += '|';
    for (const scope::BoundSelectItem& s : n.projections) {
      out += s.ToString();
      out += ',';
    }
    out += '|';
    for (Symbol g : n.group_by) {
      out += SymName(g);
      out += ',';
    }
    out += '|';
    out += SymName(n.output_path);
    out += '|';
    for (double v : {n.true_fanout, n.est_bytes, n.true_rows, n.true_bytes,
                     n.local_cost}) {
      add(v);
    }
    if (n.schema != nullptr) {
      for (const scope::BoundColumn& c : n.schema->columns) {
        out += SymName(c.name);
        out += ',';
      }
    }
    out += '\n';
  }
  return out;
}

uint64_t FoldResult(const Result<CompilationOutput>& out, uint64_t h) {
  if (!out.ok()) return HashString(out.status().ToString(), h);
  return HashString(NodeDetails(out->plan), HashString(OutputKey(*out), h));
}

// Captured from a build of commit 2b83840. Update them only with a change
// that means to move plans, and say which plans moved and why.
constexpr size_t kPinnedJobCount = 101;
constexpr size_t kPinnedNormalizedRuns = 2971;
constexpr size_t kPinnedFailures = 778;
constexpr uint64_t kPinnedDigest = 0xa58a0932e894d03cULL;
// Memo exprs summed over every search of the pass (optimizer.memo.exprs),
// added with that counter; it did not move any of the constants above.
constexpr double kPinnedMemoExprs = 43075;

TEST(OptimizerPinnedOutputsTest, DigestOverWiredFlipsIsPinned) {
  const std::vector<PinnedJob> jobs = PinnedJobs();
  const std::vector<RuleConfig> configs = PinnedConfigs();
  const RuleConfig base = RuleConfig::Default();
  uint64_t digest = kFnvOffsetBasis;
  size_t full_runs = 0, normalized_runs = 0, failures = 0;
  BitVector256 used_rules;  // union of every successful signature
  const double exprs_before =
      obs::Registry::Get().Snapshot().SeriesValue("optimizer.memo.exprs");
  for (const PinnedJob& pj : jobs) {
    Optimizer optimizer(pj.job.catalog);
    BitVector256 norm_consulted;
    NormalizedPlan normalized;
    auto base_out = optimizer.OptimizeTracked(pj.plan, base, &norm_consulted,
                                              nullptr, &normalized);
    ASSERT_TRUE(base_out.ok()) << pj.job.job_id << ": " << base_out.status();
    ASSERT_NE(normalized.seed, nullptr);
    for (const RuleConfig& config : configs) {
      auto full = optimizer.Optimize(pj.plan, config);
      digest = FoldResult(full, digest);
      ++full_runs;
      failures += full.ok() ? 0 : 1;
      if (full.ok()) used_rules |= full->signature;
      if (!AgreesOn(config, base, norm_consulted)) continue;
      auto restarted =
          optimizer.OptimizeFromNormalized(normalized, config, nullptr);
      // The restart must reproduce the full run (the memo's soundness).
      ASSERT_EQ(restarted.ok(), full.ok()) << pj.job.job_id;
      if (full.ok()) {
        ASSERT_EQ(OutputKey(*restarted), OutputKey(*full)) << pj.job.job_id;
      }
      digest = FoldResult(restarted, HashU64(0x5eed, digest));
      ++normalized_runs;
    }
  }
  EXPECT_EQ(jobs.size(), kPinnedJobCount);
  EXPECT_EQ(full_runs, kPinnedJobCount * configs.size());
  EXPECT_EQ(normalized_runs, kPinnedNormalizedRuns);
  EXPECT_EQ(failures, kPinnedFailures);
  // Some winner uses every exploration, so a transform whose copies carry
  // the wrong `applied` mask moves some plan in the digest.
  for (int rule : {rules::kEagerAggregationLeft, rules::kEagerAggregationRight,
                   rules::kJoinAssociativity, rules::kPushJoinThroughUnion,
                   rules::kBroadcastJoinAggressive, rules::kJoinCommute}) {
    EXPECT_TRUE(used_rules.Test(rule)) << "rule " << rule;
  }
  EXPECT_EQ(digest, kPinnedDigest) << std::hex << "0x" << digest;
  // The search's work, which the digest cannot see where an alternative
  // that a wrong `applied` row re-admits never wins.
  const double exprs =
      obs::Registry::Get().Snapshot().SeriesValue("optimizer.memo.exprs") -
      exprs_before;
  EXPECT_EQ(exprs, kPinnedMemoExprs);
}

// ---------------------------------------------------------------------------
// Semantic oracle, first rung: steering may change how a job runs, never
// what it returns. Each OUTPUT root of a steered plan must carry Default's
// ground-truth row count and schema. A root's true_rows is its memo group's
// true statistics, which every alternative in the group shares, so this
// rung checks the normalization rewrites (a predicate dropped or duplicated
// while pushing it down moves the root's rows); it cannot see a wrong
// memo exploration, whose alternatives never derive their own rows. The
// pinned jobs never filter above a join, so FilterOverJoinJob rides along
// for the filter-into-join pushdown (left input only: see its comment).
// ---------------------------------------------------------------------------

/// The rule ids on which `config` differs from Default, e.g. "41 44".
std::string FlippedRules(const RuleConfig& config) {
  const BitVector256 diff = config.bits() ^ RuleConfig::Default().bits();
  std::string out;
  for (int id = 0; id < BitVector256::kBits; ++id) {
    if (!diff.Test(id)) continue;
    if (!out.empty()) out += ' ';
    out += std::to_string(id);
  }
  return out;
}

TEST(OptimizerSemanticOracleTest, SteeredRootsKeepDefaultRowsAndSchemas) {
  std::vector<PinnedJob> jobs = PinnedJobs();
  workload::JobInstance extra = FilterOverJoinJob();
  auto extra_plan = scope::CompileSource(extra.script, extra.catalog);
  ASSERT_TRUE(extra_plan.ok()) << extra_plan.status();
  jobs.push_back({std::move(extra), std::move(extra_plan).value()});
  const std::vector<RuleConfig> configs = PinnedConfigs();
  size_t compared = 0;
  double max_rel_err = 0.0;
  for (const PinnedJob& pj : jobs) {
    Optimizer optimizer(pj.job.catalog);
    auto base = optimizer.Optimize(pj.plan, RuleConfig::Default());
    ASSERT_TRUE(base.ok()) << pj.job.job_id << ": " << base.status();
    const PhysicalPlan& want = base->plan;
    for (const RuleConfig& config : configs) {
      if (config.bits() == RuleConfig::Default().bits()) continue;  // unsteered
      auto steered = optimizer.Optimize(pj.plan, config);
      if (!steered.ok()) continue;  // a refused config returns nothing
      const PhysicalPlan& got = steered->plan;
      ASSERT_EQ(got.roots.size(), want.roots.size()) << pj.job.job_id;
      for (size_t r = 0; r < want.roots.size(); ++r) {
        const PhysicalNode& a = want.node(want.roots[r]);
        const PhysicalNode& b = got.node(got.roots[r]);
        const double rel_err = std::abs(b.true_rows - a.true_rows) /
                               std::max(1.0, std::abs(a.true_rows));
        max_rel_err = std::max(max_rel_err, rel_err);
        EXPECT_LE(rel_err, 1e-9)
            << pj.job.job_id << " root " << r << " with rules flipped "
            << FlippedRules(config) << ": " << b.true_rows << " vs "
            << a.true_rows;
        ASSERT_NE(a.schema, nullptr);
        ASSERT_NE(b.schema, nullptr);
        EXPECT_EQ(*b.schema, *a.schema) << pj.job.job_id << " root " << r;
        ++compared;
      }
    }
  }
  std::printf("%zu root comparisons, max relative error %.3g\n", compared,
              max_rel_err);
  // Most flips compile: the check must have compared many roots per job.
  EXPECT_GT(compared, 10 * jobs.size());
}

// ---------------------------------------------------------------------------
// Concurrent restarts: the memo's normalized tier hands one NormalizedPlan
// to every compile of a job that reuses it, on whichever threads those run.
// The seed is shared read-only, so concurrent restarts must give exactly
// the serial results.
// ---------------------------------------------------------------------------

TEST(OptimizerConcurrencyTest, ConcurrentRestartsMatchSerial) {
  const std::vector<PinnedJob> jobs = PinnedJobs();
  const std::vector<RuleConfig> configs = PinnedConfigs();
  const RuleConfig base = RuleConfig::Default();
  struct JobRestarts {
    NormalizedPlan normalized;
    std::vector<const RuleConfig*> configs;  ///< those that may restart
    std::vector<uint64_t> serial;            ///< FoldResult per config
  };
  std::vector<JobRestarts> work(jobs.size());
  size_t runs = 0;
  for (size_t j = 0; j < jobs.size(); ++j) {
    Optimizer optimizer(jobs[j].job.catalog);
    BitVector256 norm_consulted;
    ASSERT_TRUE(optimizer
                    .OptimizeTracked(jobs[j].plan, base, &norm_consulted,
                                     nullptr, &work[j].normalized)
                    .ok());
    for (const RuleConfig& config : configs) {
      if (!AgreesOn(config, base, norm_consulted)) continue;
      work[j].configs.push_back(&config);
      work[j].serial.push_back(FoldResult(
          optimizer.OptimizeFromNormalized(work[j].normalized, config,
                                           nullptr),
          0));
    }
    runs += work[j].configs.size();
  }
  ASSERT_EQ(runs, kPinnedNormalizedRuns);

  // Job by job, so the 4 threads restart from the same seed at the same
  // time; each starts its config rotation at a different offset.
  constexpr size_t kThreads = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t j = 0; j < jobs.size(); ++j) {
        const JobRestarts& w = work[j];
        Optimizer optimizer(jobs[j].job.catalog);
        const size_t n = w.configs.size();
        for (size_t k = 0; k < n; ++k) {
          const size_t c = (k + t * n / kThreads) % n;
          const uint64_t got = FoldResult(
              optimizer.OptimizeFromNormalized(w.normalized, *w.configs[c],
                                               nullptr),
              0);
          if (got != w.serial[c]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace qo::opt
