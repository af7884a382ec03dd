// Execution simulator tests: stage decomposition (including shared-subtree
// DAG golden cases and a shared scan whose stages wait on each other),
// metric determinism, byte-identity of reused profiles, batched runs and
// the engine's cached path against fresh profiles and the reference
// compilation (standalone, under concurrency, and through the full
// fig10-12/table2 pipeline), and the variability model's statistical
// structure.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/kernels/kernels.h"
#include "common/stats.h"
#include "engine/engine.h"
#include "exec/cluster.h"
#include "experiments/experiments.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "reference_compile.h"
#include "scope/compiler.h"
#include "workload/workload.h"

namespace qo::exec {
namespace {

/// The registry series `name` (0 before its first event).
double Series(const char* name) {
  return obs::Registry::Get().Snapshot().SeriesValue(name);
}

/// Exact (bitwise) equality over every JobMetrics field — the prepared
/// execution path must not perturb a single ulp.
void ExpectMetricsBitEqual(const JobMetrics& a, const JobMetrics& b) {
  EXPECT_EQ(a.latency_sec, b.latency_sec);
  EXPECT_EQ(a.pn_hours, b.pn_hours);
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.data_read_bytes, b.data_read_bytes);
  EXPECT_EQ(a.data_written_bytes, b.data_written_bytes);
  EXPECT_EQ(a.max_memory_bytes, b.max_memory_bytes);
  EXPECT_EQ(a.avg_memory_bytes, b.avg_memory_bytes);
  EXPECT_EQ(a.cpu_hours, b.cpu_hours);
  EXPECT_EQ(a.io_hours, b.io_hours);
}

/// One run of `plan` through a freshly prepared profile.
JobMetrics RunOnce(const ClusterSimulator& sim, const opt::PhysicalPlan& plan,
                   const scope::Catalog& catalog, uint64_t seed) {
  return sim.Execute(sim.Prepare(plan, catalog), seed);
}

scope::Catalog SimCatalog() {
  scope::Catalog catalog;
  scope::TableStats fact;
  fact.true_rows = 4e7;
  fact.est_rows = 4e7;
  fact.avg_row_bytes = 80;
  fact.columns["k"] = {1e5, 1e5};
  fact.columns["grp"] = {30, 30};
  fact.columns["v"] = {1e6, 1e6};
  catalog.RegisterTable("fact", fact);
  scope::TableStats dim;
  dim.true_rows = 1e6;
  dim.est_rows = 1e6;
  dim.avg_row_bytes = 40;
  dim.columns["pk"] = {1e6, 1e6};
  dim.columns["attr"] = {100, 100};
  catalog.RegisterTable("dim", dim);
  return catalog;
}

opt::PhysicalPlan CompileTestPlan(const scope::Catalog& catalog) {
  const char* script = R"(
    f = EXTRACT k:long, grp:string, v:double FROM "fact";
    d = EXTRACT pk:long, attr:string FROM "dim";
    j = SELECT * FROM f JOIN d ON k == pk @ 1.0;
    a = SELECT grp, SUM(v) AS s FROM j GROUP BY grp;
    OUTPUT a TO "out";
  )";
  auto logical = scope::CompileSource(script, catalog);
  EXPECT_TRUE(logical.ok());
  opt::Optimizer optimizer(catalog);
  auto out = optimizer.Optimize(*logical, opt::RuleConfig::Default());
  EXPECT_TRUE(out.ok());
  return out->plan;
}

TEST(StageDecompositionTest, BoundariesAtExchanges) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterConfig config;
  auto stages = DecomposeIntoStages(plan, catalog, config);
  // Every node appears in exactly one stage.
  size_t assigned = 0;
  for (const auto& s : stages) assigned += s.node_ids.size();
  EXPECT_EQ(assigned, plan.size());
  // The number of stages is 1 + number of exchanges (each exchange opens
  // exactly one producer-side stage in a tree-shaped plan).
  EXPECT_EQ(stages.size(), 1u + static_cast<size_t>(plan.ExchangeCount()));
  for (const auto& s : stages) {
    EXPECT_GE(s.partitions, 1);
    EXPECT_GE(s.cpu_sec, 0.0);
  }
}

TEST(StageDecompositionTest, UpstreamEdgesPointAcrossStages) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  auto stages = DecomposeIntoStages(plan, catalog, {});
  for (size_t i = 0; i < stages.size(); ++i) {
    for (int up : stages[i].upstream) {
      EXPECT_NE(static_cast<size_t>(up), i);
      EXPECT_LT(static_cast<size_t>(up), stages.size());
    }
  }
}

TEST(ClusterSimTest, SameSeedSameMetrics) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  JobMetrics a = RunOnce(sim, plan, catalog, 123);
  JobMetrics b = RunOnce(sim, plan, catalog, 123);
  EXPECT_DOUBLE_EQ(a.latency_sec, b.latency_sec);
  EXPECT_DOUBLE_EQ(a.pn_hours, b.pn_hours);
  EXPECT_EQ(a.vertices, b.vertices);
}

TEST(ClusterSimTest, ByteCountersAreSeedIndependent) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  JobMetrics a = RunOnce(sim, plan, catalog, 1);
  JobMetrics b = RunOnce(sim, plan, catalog, 2);
  EXPECT_DOUBLE_EQ(a.data_read_bytes, b.data_read_bytes);
  EXPECT_DOUBLE_EQ(a.data_written_bytes, b.data_written_bytes);
  EXPECT_EQ(a.vertices, b.vertices);
  // Scans read at least the two input tables.
  EXPECT_GE(a.data_read_bytes, 4e7 * 80 + 1e6 * 40);
}

TEST(ClusterSimTest, LatencyVarianceExceedsPnHoursVariance) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  RunningStats latency, pn;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    JobMetrics m = RunOnce(sim, plan, catalog, seed);
    latency.Add(m.latency_sec);
    pn.Add(m.pn_hours);
  }
  // Paper Sec. 5.1: latency is far noisier than PNhours.
  EXPECT_GT(latency.cv(), 0.05);
  EXPECT_LT(pn.cv(), latency.cv());
}

TEST(ClusterSimTest, PnHoursIsCpuPlusIo) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  JobMetrics m = RunOnce(sim, plan, catalog, 5);
  EXPECT_NEAR(m.pn_hours, m.cpu_hours + m.io_hours, 1e-12);
  EXPECT_GT(m.cpu_hours, 0);
  EXPECT_GT(m.io_hours, 0);
}

TEST(ClusterSimTest, MoreTokensReduceLatencyOfWideJobs) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterConfig few = {};
  few.tokens = 4;
  ClusterConfig many = {};
  many.tokens = 512;
  // Average over seeds to defeat noise.
  double lat_few = 0, lat_many = 0;
  for (uint64_t s = 0; s < 20; ++s) {
    lat_few += RunOnce(ClusterSimulator(few), plan, catalog, s).latency_sec;
    lat_many += RunOnce(ClusterSimulator(many), plan, catalog, s).latency_sec;
  }
  EXPECT_LT(lat_many, lat_few);
}

TEST(ClusterSimTest, RelativeDeltaHelper) {
  EXPECT_NEAR(RelativeDelta(90, 100), -0.1, 1e-12);
  EXPECT_NEAR(RelativeDelta(110, 100), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(RelativeDelta(5, 0), 0.0);
}

TEST(ClusterSimTest, MetricsToStringMentionsFields) {
  JobMetrics m;
  m.latency_sec = 12.5;
  m.pn_hours = 0.5;
  m.vertices = 7;
  std::string s = m.ToString();
  EXPECT_NE(s.find("latency"), std::string::npos);
  EXPECT_NE(s.find("vertices=7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared-subtree DAGs: golden decomposition.
// ---------------------------------------------------------------------------

/// Two outputs sharing one scan; one consumer reads it through an exchange,
/// the other directly:
///
///   Output(3) <- HashAgg(2) <- ExchangeShuffle(1) <- Scan(0)
///   Output(5) <- Project(4) <-----------------------/
opt::PhysicalPlan SharedSubtreeDag() {
  opt::PhysicalPlan plan;
  auto add = [&](opt::PhysOpKind kind, std::vector<int> children, int parts,
                 double rows, double bytes) {
    opt::PhysicalNode n;
    n.kind = kind;
    n.children = std::move(children);
    n.partitions = parts;
    n.true_rows = rows;
    n.true_bytes = bytes;
    return plan.AddNode(std::move(n));
  };
  int scan = add(opt::PhysOpKind::kScan, {}, 8, 1e6, 8e7);
  int exchange = add(opt::PhysOpKind::kExchangeShuffle, {scan}, 4, 1e6, 8e7);
  int agg = add(opt::PhysOpKind::kHashAgg, {exchange}, 4, 1e3, 8e4);
  int out_a = add(opt::PhysOpKind::kOutput, {agg}, 1, 1e3, 8e4);
  int project = add(opt::PhysOpKind::kProject, {scan}, 8, 1e6, 4e7);
  int out_b = add(opt::PhysOpKind::kOutput, {project}, 1, 1e6, 4e7);
  plan.roots = {out_a, out_b};
  return plan;
}

TEST(StageDecompositionTest, SharedSubtreeDagGolden) {
  opt::PhysicalPlan plan = SharedSubtreeDag();
  scope::Catalog catalog;  // scans fall back to node bytes: no table stats
  auto stages = DecomposeIntoStages(plan, catalog, {});
  ASSERT_EQ(stages.size(), 3u);
  // Root A's pipeline, then the exchange-opened producer stage, then root
  // B's pipeline (stage creation follows the DFS visit order).
  EXPECT_EQ(stages[0].node_ids, (std::vector<int>{3, 2}));
  EXPECT_EQ(stages[1].node_ids, (std::vector<int>{1, 0}));
  EXPECT_EQ(stages[2].node_ids, (std::vector<int>{5, 4}));
  // Both consumers wait on the shared producer stage; the producer waits on
  // nothing.
  EXPECT_EQ(stages[0].upstream, (std::vector<int>{1}));
  EXPECT_TRUE(stages[1].upstream.empty());
  EXPECT_EQ(stages[2].upstream, (std::vector<int>{1}));
  // The exchange runs in its producer's partitions; the agg stage is 4-wide.
  EXPECT_EQ(stages[0].partitions, 4);
  EXPECT_EQ(stages[1].partitions, 8);
  EXPECT_EQ(stages[2].partitions, 8);
  // The shared scan's work lands in exactly one stage.
  size_t assigned = 0;
  for (const auto& s : stages) assigned += s.node_ids.size();
  EXPECT_EQ(assigned, plan.size());
}

// ---------------------------------------------------------------------------
// Prepared execution: byte-identity, batching, concurrency, counters.
// ---------------------------------------------------------------------------

/// A shared scan read both directly and through an exchange — an ordinary
/// shared-scan plan whose two stages each wait on the other:
///
///   Output(4) <- HashJoin(3) <- Scan(0)
///                            <- ExchangeShuffle(2) <- Filter(1) <- Scan(0)
opt::PhysicalPlan SharedScanCycle() {
  opt::PhysicalPlan plan;
  auto add = [&](opt::PhysOpKind kind, std::vector<int> children, int parts,
                 double rows, double bytes) {
    opt::PhysicalNode n;
    n.kind = kind;
    n.children = std::move(children);
    n.partitions = parts;
    n.true_rows = rows;
    n.true_bytes = bytes;
    return plan.AddNode(std::move(n));
  };
  int scan = add(opt::PhysOpKind::kScan, {}, 8, 1e6, 8e7);
  int filter = add(opt::PhysOpKind::kFilter, {scan}, 8, 2e5, 1.6e7);
  int exchange =
      add(opt::PhysOpKind::kExchangeShuffle, {filter}, 4, 2e5, 1.6e7);
  int join = add(opt::PhysOpKind::kHashJoin, {scan, exchange}, 4, 5e5, 6e7);
  int out = add(opt::PhysOpKind::kOutput, {join}, 1, 5e5, 6e7);
  plan.roots = {out};
  return plan;
}

TEST(StageDecompositionTest, SharedScanStagesWaitOnEachOther) {
  opt::PhysicalPlan plan = SharedScanCycle();
  scope::Catalog catalog;
  auto stages = DecomposeIntoStages(plan, catalog, {});
  ASSERT_EQ(stages.size(), 2u);
  // The scan runs in the join's stage, the filter behind the exchange reads
  // it from there: stage 0 waits on stage 1 and stage 1 on stage 0.
  EXPECT_EQ(stages[0].node_ids, (std::vector<int>{4, 3, 0}));
  EXPECT_EQ(stages[1].node_ids, (std::vector<int>{2, 1}));
  EXPECT_EQ(stages[0].upstream, (std::vector<int>{1}));
  EXPECT_EQ(stages[1].upstream, (std::vector<int>{0}));
}

TEST(PreparedExecutionTest, SharedScanCycleDropsBackEdge) {
  opt::PhysicalPlan plan = SharedScanCycle();
  scope::Catalog catalog;
  ExecutionProfile profile = ClusterSimulator().Prepare(plan, catalog);
  ASSERT_EQ(profile.stages.size(), 2u);
  EXPECT_EQ(profile.stages[0].upstream, (std::vector<int>{1}));
  EXPECT_TRUE(profile.stages[1].upstream.empty());
  EXPECT_EQ(profile.topo_order, (std::vector<int>{1, 0}));
  EXPECT_EQ(profile.upstream_offsets, (std::vector<int32_t>{0, 1, 1}));
  EXPECT_EQ(profile.upstream_list, (std::vector<int32_t>{1}));
}

/// (seed, latency_sec bits, pn_hours bits) of the shared-scan plan, as the
/// memoized recursion that used to handle cyclic stage graphs computed them.
struct PinnedRun {
  uint64_t seed;
  uint64_t latency_bits;
  uint64_t pn_hours_bits;
};
constexpr PinnedRun kSharedScanPinned[] = {
    {0, 0x4037f320b93dd08aULL, 0x3f3def08bed9ef46ULL},
    {7, 0x403ee92e57d84f0dULL, 0x3f398537a9d8522fULL},
    {64, 0x403ab8f4a95c8496ULL, 0x3f397db3eec1e349ULL},
    {1000, 0x4043b89cced762caULL, 0x3f397533187365d3ULL},
};

TEST(PreparedExecutionTest, SharedScanCycleMatchesPinnedRecursion) {
  opt::PhysicalPlan plan = SharedScanCycle();
  scope::Catalog catalog;
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  for (const PinnedRun& pin : kSharedScanPinned) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    JobMetrics m = sim.Execute(profile, pin.seed);
    EXPECT_EQ(std::bit_cast<uint64_t>(m.latency_sec), pin.latency_bits);
    EXPECT_EQ(std::bit_cast<uint64_t>(m.pn_hours), pin.pn_hours_bits);
  }
}

TEST(PreparedExecutionTest, SharedScanCycleBatchedEqualsSingleRuns) {
  // 67 runs: sixteen 4-lane blocks plus a 3-run tail.
  constexpr int kRuns = 67;
  opt::PhysicalPlan plan = SharedScanCycle();
  scope::Catalog catalog;
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  std::vector<JobMetrics> single;
  for (int i = 0; i < kRuns; ++i) {
    single.push_back(sim.Execute(profile, static_cast<uint64_t>(i)));
  }
  for (const kernels::KernelTable* kt :
       {&kernels::ScalarTable(), &kernels::Avx2Table()}) {
    kernels::SetActiveTableForTest(kt);
    std::vector<JobMetrics> batch = sim.ExecuteRuns(profile, 0, kRuns);
    ASSERT_EQ(batch.size(), single.size()) << kt->name;
    for (size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(std::string(kt->name) + " run " + std::to_string(i));
      ExpectMetricsBitEqual(batch[i], single[i]);
    }
    for (const PinnedRun& pin : kSharedScanPinned) {
      if (pin.seed >= static_cast<uint64_t>(kRuns)) continue;
      EXPECT_EQ(std::bit_cast<uint64_t>(batch[pin.seed].latency_sec),
                pin.latency_bits)
          << kt->name << " seed " << pin.seed;
    }
  }
  kernels::SetActiveTableForTest(nullptr);
}

TEST(PreparedExecutionTest, ReusedProfileEqualsFreshProfileAcrossSeeds) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  EXPECT_EQ(profile.topo_order.size(), profile.stages.size());
  for (uint64_t seed = 0; seed < 64; ++seed) {
    ExpectMetricsBitEqual(RunOnce(sim, plan, catalog, seed),
                          sim.Execute(profile, seed));
  }
}

TEST(PreparedExecutionTest, SharedSubtreeDagReusedProfileEqualsFresh) {
  opt::PhysicalPlan plan = SharedSubtreeDag();
  scope::Catalog catalog;
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  for (uint64_t seed = 100; seed < 132; ++seed) {
    ExpectMetricsBitEqual(RunOnce(sim, plan, catalog, seed),
                          sim.Execute(profile, seed));
  }
}

TEST(PreparedExecutionTest, ExecuteRunsMatchesIndividualRuns) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  std::vector<JobMetrics> batch = sim.ExecuteRuns(profile, 7000, 20);
  ASSERT_EQ(batch.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    ExpectMetricsBitEqual(batch[i],
                          sim.Execute(profile, 7000 + static_cast<uint64_t>(i)));
  }
}

TEST(PreparedExecutionTest, ConcurrentProfileRunsMatchSerial) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  auto profile = sim.PrepareShared(plan, catalog);
  constexpr int kThreads = 4;
  constexpr int kRunsPerThread = 64;
  std::vector<JobMetrics> serial;
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kRunsPerThread; ++r) {
      serial.push_back(
          sim.Execute(*profile, static_cast<uint64_t>(t * 1000 + r)));
    }
  }
  // The same runs, fanned out: one immutable profile hammered from four
  // threads (the PR 2 runtime-pool usage pattern) must reproduce the serial
  // metrics exactly.
  std::vector<JobMetrics> parallel(serial.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        parallel[t * kRunsPerThread + r] =
            sim.Execute(*profile, static_cast<uint64_t>(t * 1000 + r));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t i = 0; i < serial.size(); ++i) {
    ExpectMetricsBitEqual(parallel[i], serial[i]);
  }
}

TEST(PreparedExecutionTest, TelemetryCountersTrack) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  obs::Registry::Get().ZeroAllForTest();
  ClusterSimulator sim;
  EXPECT_EQ(Series("exec.prepares"), 0.0);
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  EXPECT_EQ(Series("exec.prepares"), 1.0);
  sim.Execute(profile, 1);
  sim.ExecuteRuns(profile, 2, 3);
  EXPECT_EQ(Series("exec.prepared_runs"), 4.0);
  RunOnce(sim, plan, catalog, 1);
  EXPECT_EQ(Series("exec.prepared_runs"), 5.0);
  EXPECT_EQ(Series("exec.prepares"), 2.0);
}

TEST(PreparedExecutionTest, AAVarianceStructure) {
  // Paper Figs. 3/5 through the prepared path: A/A latency is noisy (CV
  // well above the 5% line) while PNhours stays bounded.
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  RunningStats latency, pn;
  for (const JobMetrics& m : sim.ExecuteRuns(profile, 0, 40)) {
    latency.Add(m.latency_sec);
    pn.Add(m.pn_hours);
  }
  EXPECT_GT(latency.cv(), 0.05);
  EXPECT_LT(pn.cv(), 0.15);
  EXPECT_LT(pn.cv(), latency.cv());
}

// ---------------------------------------------------------------------------
// Engine integration: the profile slot on shared compilations.
// ---------------------------------------------------------------------------

const workload::JobInstance& EngineTestJob() {
  static const auto* job = [] {
    workload::WorkloadDriver driver(
        {.num_templates = 6, .jobs_per_day = 8, .seed = 77});
    return new workload::JobInstance(driver.DayJobs(0)[0]);
  }();
  return *job;
}

TEST(EnginePreparedTest, CachedRunsMatchReferenceCompilation) {
  // The engine's cached compilation and its reused profile against the
  // reference oracle: a direct compile outside the cache, whose own profile
  // is prepared on its first run.
  engine::ScopeEngine engine;
  const workload::JobInstance& job = EngineTestJob();
  auto compiled = engine.CompileShared(job, opt::RuleConfig::Default());
  ASSERT_TRUE(compiled.ok());
  auto reference = ReferenceCompile(job, opt::RuleConfig::Default());
  ASSERT_TRUE(reference.ok());
  for (uint64_t salt : {0ull, 1ull, 17ull, 123456789ull}) {
    ExpectMetricsBitEqual(engine.Execute(job, **compiled, salt),
                          engine.Execute(job, *reference, salt));
  }
  std::vector<JobMetrics> batch = engine.ExecuteRuns(job, **compiled, 50, 8);
  ASSERT_EQ(batch.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    ExpectMetricsBitEqual(batch[i], engine.Execute(job, *reference, 50 + i));
  }
}

TEST(EnginePreparedTest, ProfileSlotIsReusedAcrossRuns) {
  // Slot reuse rides on both runs sharing one cached CompilationOutput.
  obs::Registry::Get().ZeroAllForTest();
  engine::ScopeEngine engine;
  const workload::JobInstance& job = EngineTestJob();
  auto first = engine.Run(job, opt::RuleConfig::Default(), 1);
  ASSERT_TRUE(first.ok());
  auto again = engine.Run(job, opt::RuleConfig::Default(), 2);
  ASSERT_TRUE(again.ok());
  // The compilation cache hands back the same CompilationOutput, so the
  // second run reuses the profile prepared by the first.
  const double hits = Series("exec.profile_hits");
  const double misses = Series("exec.profile_misses");
  EXPECT_EQ(Series("exec.prepares"), 1.0);
  EXPECT_EQ(misses, 1.0);
  EXPECT_GE(hits, 1.0);
  EXPECT_GT(hits / (hits + misses), 0.0);
  // And the profile both runs used is the one in the slot.
  auto profile = engine.PrepareProfile(job, *first->compilation);
  EXPECT_EQ(profile.get(), first->compilation->exec_profile.Load().get());
}

TEST(EnginePreparedTest, CatalogDriftInvalidatesProfileReuse) {
  // A profile bakes in scan sizes from the catalog; if a job's statistics
  // drift, Execute must re-prepare rather than serve metrics for the old
  // table sizes.
  engine::ScopeEngine engine;
  workload::JobInstance job;
  job.job_id = "drift_job";
  job.script = R"(
    f = EXTRACT k:long, grp:string, v:double FROM "fact";
    d = EXTRACT pk:long, attr:string FROM "dim";
    j = SELECT * FROM f JOIN d ON k == pk @ 1.0;
    a = SELECT grp, SUM(v) AS s FROM j GROUP BY grp;
    OUTPUT a TO "out";
  )";
  job.catalog = SimCatalog();
  auto compiled = engine.CompileShared(job, opt::RuleConfig::Default());
  ASSERT_TRUE(compiled.ok());
  JobMetrics before = engine.Execute(job, **compiled, 3);
  // Drift: double the fact table on this job's private catalog copy.
  scope::TableStats fact = *job.catalog.Lookup("fact").value();
  fact.true_rows *= 2;
  job.catalog.RegisterTable("fact", fact);
  JobMetrics after = engine.Execute(job, **compiled, 3);
  // A copy of the compilation starts with an empty profile slot, so running
  // it prepares a profile fresh from the drifted catalog. The cached
  // compilation must track the drift exactly like that (and the drift must
  // actually change the metrics).
  opt::CompilationOutput fresh = **compiled;
  ASSERT_EQ(fresh.exec_profile.Load(), nullptr);
  ExpectMetricsBitEqual(after, engine.Execute(job, fresh, 3));
  EXPECT_NE(before.pn_hours, after.pn_hours);
}

// ---------------------------------------------------------------------------
// Full pipeline byte-identity: the fig10-12/table2 aggregate-impact runs
// (train + eval) must be the same at 1 or 4 worker threads, where the shared
// caches and profile slots see different access orders.
// ---------------------------------------------------------------------------

experiments::AggregateImpactResult RunPipeline(int threads) {
  experiments::ExperimentEnv env({.threads = threads});
  return experiments::RunAggregateImpact(env, /*train_days=*/12,
                                         /*eval_days=*/3);
}

void ExpectAggregateEqual(const experiments::AggregateImpactResult& a,
                          const experiments::AggregateImpactResult& b,
                          const char* label) {
  EXPECT_EQ(a.matched_jobs, b.matched_jobs) << label;
  EXPECT_EQ(a.active_hints, b.active_hints) << label;
  EXPECT_EQ(a.pn_hours_reduction, b.pn_hours_reduction) << label;
  EXPECT_EQ(a.latency_reduction, b.latency_reduction) << label;
  EXPECT_EQ(a.vertices_reduction, b.vertices_reduction) << label;
  EXPECT_EQ(a.pn_deltas, b.pn_deltas) << label;
  EXPECT_EQ(a.latency_deltas, b.latency_deltas) << label;
  EXPECT_EQ(a.vertices_deltas, b.vertices_deltas) << label;
}

TEST(PreparedPipelineTest, AggregateImpactByteIdenticalAcrossThreads) {
  experiments::AggregateImpactResult reference = RunPipeline(/*threads=*/1);
  // The pipeline must have produced hints and matched jobs for the
  // comparison to mean anything.
  ASSERT_GT(reference.matched_jobs, 0);
  ASSERT_GT(reference.active_hints, 0u);
  ExpectAggregateEqual(reference, RunPipeline(/*threads=*/4), "threads=4");
}

TEST(KernelTableExecTest, ExecuteRunsBitIdenticalAcrossTables) {
  // The batched 4-lane sweep under the scalar and AVX2 kernel tables must
  // produce the same bytes as per-seed Execute for every seed, including
  // the remainder block (runs not a multiple of four).
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterSimulator sim;
  ExecutionProfile profile = sim.Prepare(plan, catalog);
  std::vector<JobMetrics> reference;
  for (int i = 0; i < 23; ++i) {
    reference.push_back(sim.Execute(profile, 500 + static_cast<uint64_t>(i)));
  }
  for (const kernels::KernelTable* kt :
       {&kernels::ScalarTable(), &kernels::Avx2Table()}) {
    kernels::SetActiveTableForTest(kt);
    std::vector<JobMetrics> batch = sim.ExecuteRuns(profile, 500, 23);
    ASSERT_EQ(batch.size(), reference.size()) << kt->name;
    for (size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(std::string(kt->name) + " run " + std::to_string(i));
      ExpectMetricsBitEqual(batch[i], reference[i]);
    }
  }
  kernels::SetActiveTableForTest(nullptr);
}

TEST(KernelTableExecTest, PipelineByteIdenticalAcrossTablesAndThreads) {
  // The QO_SIMD on/off acceptance matrix inside one binary: the full
  // fig10-12/table2 aggregate-impact pipeline at 1 and 4 worker threads
  // must be byte-identical under the scalar and AVX2 kernel tables.
  kernels::SetActiveTableForTest(&kernels::ScalarTable());
  experiments::AggregateImpactResult reference = RunPipeline(/*threads=*/1);
  ASSERT_GT(reference.matched_jobs, 0);
  for (const kernels::KernelTable* kt :
       {&kernels::ScalarTable(), &kernels::Avx2Table()}) {
    kernels::SetActiveTableForTest(kt);
    for (int threads : {1, 4}) {
      if (kt == &kernels::ScalarTable() && threads == 1) continue;
      char label[64];
      std::snprintf(label, sizeof(label), "table=%s threads=%d", kt->name,
                    threads);
      ExpectAggregateEqual(reference, RunPipeline(threads), label);
    }
  }
  kernels::SetActiveTableForTest(nullptr);
}

// Parameterized: the variability knobs behave monotonically.
class NoiseKnobTest : public ::testing::TestWithParam<double> {};

TEST_P(NoiseKnobTest, HigherCongestionSigmaRaisesLatencyCv) {
  scope::Catalog catalog = SimCatalog();
  opt::PhysicalPlan plan = CompileTestPlan(catalog);
  ClusterConfig quiet = {};
  quiet.stage_congestion_sigma = 0.01;
  quiet.job_congestion_sigma = 0.01;
  quiet.straggler_prob = 0.0;
  ClusterConfig noisy = quiet;
  noisy.stage_congestion_sigma = GetParam();
  RunningStats cv_quiet, cv_noisy;
  for (uint64_t s = 0; s < 30; ++s) {
    cv_quiet.Add(RunOnce(ClusterSimulator(quiet), plan, catalog, s).latency_sec);
    cv_noisy.Add(RunOnce(ClusterSimulator(noisy), plan, catalog, s).latency_sec);
  }
  EXPECT_GT(cv_noisy.cv(), cv_quiet.cv());
}

INSTANTIATE_TEST_SUITE_P(Sigmas, NoiseKnobTest,
                         ::testing::Values(0.2, 0.4, 0.8));

}  // namespace
}  // namespace qo::exec
