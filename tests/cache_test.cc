// Tests for the two-level compilation cache (src/cache/): sharded-LRU
// semantics, fingerprint keys, failure caching, concurrency, byte-identity
// with the reference oracle (a direct front end + optimizer run), and the
// end-to-end guarantee that pipeline outputs are byte-identical at any
// thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "cache/compilation_cache.h"
#include "cache/fingerprint.h"
#include "cache/sharded_lru.h"
#include "core/span.h"
#include "engine/engine.h"
#include "bandit/personalizer.h"
#include "core/pipeline.h"
#include "core/recommend.h"
#include "experiments/experiments.h"
#include "obs/metrics.h"
#include "reference_compile.h"
#include "sis/sis.h"
#include "workload/workload.h"

namespace qo {
namespace {

// ---------------------------------------------------------------------------
// ShardedLruCache semantics.
// ---------------------------------------------------------------------------

struct IntHasher {
  size_t operator()(int k) const { return static_cast<size_t>(k); }
};

using IntCache = cache::ShardedLruCache<int, int, IntHasher>;

/// The registry series `name`: for cache.* the summed state of every live
/// engine (each test below keeps exactly one alive).
double Series(const char* name) {
  return obs::Registry::Get().Snapshot().SeriesValue(name);
}

TEST(ShardedLruTest, HitMissCounters) {
  IntCache c(/*capacity=*/8, /*num_shards=*/1);
  EXPECT_FALSE(c.Get(1).has_value());
  c.Insert(1, 100);
  auto hit = c.Get(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 100);
  cache::Stats stats = c.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.capacity, 8u);
  const double hit_ratio = static_cast<double>(stats.hits) /
                           static_cast<double>(stats.hits + stats.misses);
  EXPECT_DOUBLE_EQ(hit_ratio, 0.5);
}

TEST(ShardedLruTest, EvictsLeastRecentlyUsedInOrder) {
  IntCache c(/*capacity=*/3, /*num_shards=*/1);
  c.Insert(1, 10);
  c.Insert(2, 20);
  c.Insert(3, 30);
  // Touch 1 so 2 becomes the LRU entry.
  EXPECT_TRUE(c.Get(1).has_value());
  c.Insert(4, 40);  // evicts 2
  EXPECT_FALSE(c.Get(2).has_value());
  // Recency is now 4 > 1 > 3: the next eviction takes 3.
  c.Insert(5, 50);
  EXPECT_FALSE(c.Get(3).has_value());
  EXPECT_TRUE(c.Get(1).has_value());
  EXPECT_TRUE(c.Get(4).has_value());
  EXPECT_TRUE(c.Get(5).has_value());
  EXPECT_EQ(c.stats().evictions, 2u);
}

TEST(ShardedLruTest, CapacityBoundHoldsAcrossShards) {
  const size_t kCapacity = 64;
  cache::ShardedLruCache<int, int, IntHasher> c(kCapacity, /*num_shards=*/7);
  for (int i = 0; i < 10000; ++i) c.Insert(i, i);
  // Per-shard slices round up, so allow one extra entry per shard.
  EXPECT_LE(c.size(), kCapacity + c.num_shards());
  EXPECT_GE(c.stats().evictions, 10000u - kCapacity - c.num_shards());
}

TEST(ShardedLruTest, InsertRaceKeepsFirstValue) {
  IntCache c(/*capacity=*/4, /*num_shards=*/1);
  EXPECT_EQ(c.Insert(7, 70), 70);
  // A second writer loses and receives the resident value.
  EXPECT_EQ(c.Insert(7, 71), 70);
  EXPECT_EQ(*c.Get(7), 70);
}

TEST(ShardedLruTest, GetOrComputeOnlyComputesOnMiss) {
  IntCache c(/*capacity=*/4, /*num_shards=*/2);
  int computed = 0;
  auto compute = [&] {
    ++computed;
    return 42;
  };
  EXPECT_EQ(c.GetOrCompute(9, compute), 42);
  EXPECT_EQ(c.GetOrCompute(9, compute), 42);
  EXPECT_EQ(computed, 1);
}

TEST(ShardedLruTest, ConcurrentMixedAccessIsConsistent) {
  cache::ShardedLruCache<int, int, IntHasher> c(/*capacity=*/128,
                                                /*num_shards=*/8);
  std::atomic<bool> wrong{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c, &wrong, t] {
      for (int i = 0; i < 2000; ++i) {
        int key = (i * 31 + t) % 512;
        int got = c.GetOrCompute(key, [key] { return key * 3; });
        if (got != key * 3) wrong = true;
      }
    });
  }
  for (auto& th : threads) th.join();
  // Whatever the interleaving, a key can only ever map to its own value.
  EXPECT_FALSE(wrong);
  cache::Stats stats = c.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 2000u);
}

// ---------------------------------------------------------------------------
// Fingerprints.
// ---------------------------------------------------------------------------

TEST(FingerprintTest, CatalogFingerprintIsOrderIndependentAndSensitive) {
  scope::TableStats a;
  a.true_rows = 1e6;
  a.est_rows = 5e5;
  a.columns["k"] = {100.0, 90.0};
  scope::TableStats b;
  b.true_rows = 2e6;

  scope::Catalog ab, ba;
  ab.RegisterTable("/data/a", a);
  ab.RegisterTable("/data/b", b);
  ba.RegisterTable("/data/b", b);
  ba.RegisterTable("/data/a", a);
  EXPECT_EQ(ab.StatsFingerprint(), ba.StatsFingerprint());

  // Any stats drift must change the fingerprint (invalidation-by-miss).
  scope::Catalog drifted;
  scope::TableStats a2 = a;
  a2.est_rows = 5.1e5;
  drifted.RegisterTable("/data/a", a2);
  drifted.RegisterTable("/data/b", b);
  EXPECT_NE(ab.StatsFingerprint(), drifted.StatsFingerprint());

  scope::Catalog extra_col = ab;
  scope::TableStats a3 = a;
  a3.columns["v"] = {50.0, 50.0};
  extra_col.RegisterTable("/data/a", a3);
  EXPECT_NE(ab.StatsFingerprint(), extra_col.StatsFingerprint());
}

TEST(FingerprintTest, OptionsFingerprintSeparatesEngines) {
  opt::OptimizerOptions defaults;
  opt::OptimizerOptions tweaked;
  tweaked.broadcast_threshold_bytes *= 2.0;
  EXPECT_NE(cache::OptimizerOptionsFingerprint(defaults),
            cache::OptimizerOptionsFingerprint(tweaked));
  EXPECT_EQ(cache::OptimizerOptionsFingerprint(defaults),
            cache::OptimizerOptionsFingerprint(opt::OptimizerOptions{}));
}

/// Saves the QO_COMPILE_CACHE_* environment on entry and restores it on
/// exit, so this test cannot leak its values into later tests in the binary.
class EnvGuard {
 public:
  EnvGuard() {
    for (const char* name : kNames) {
      const char* v = getenv(name);
      saved_.emplace_back(name, v == nullptr ? std::string()
                                             : std::string(v));
      if (v == nullptr) saved_.back().second = kUnset;
    }
  }
  ~EnvGuard() {
    for (const auto& [name, value] : saved_) {
      if (value == kUnset) {
        unsetenv(name);
      } else {
        setenv(name, value.c_str(), 1);
      }
    }
  }

 private:
  static constexpr const char* kUnset = "\x01unset";
  static constexpr const char* kNames[] = {"QO_COMPILE_CACHE_CAPACITY",
                                           "QO_COMPILE_CACHE_SHARDS"};
  std::vector<std::pair<const char*, std::string>> saved_;
};

TEST(FingerprintTest, EnvKnobsParseAndDegrade) {
  EnvGuard guard;
  setenv("QO_COMPILE_CACHE_CAPACITY", "128", 1);
  setenv("QO_COMPILE_CACHE_SHARDS", "4", 1);
  cache::CompileCacheOptions sized = cache::CompileCacheOptions::FromEnv();
  EXPECT_EQ(sized.compilation_capacity, 128u);
  EXPECT_EQ(sized.front_end_capacity, 32u);
  EXPECT_EQ(sized.num_shards, 4);

  setenv("QO_COMPILE_CACHE_CAPACITY", "not-a-number", 1);
  cache::CompileCacheOptions fallback = cache::CompileCacheOptions::FromEnv();
  EXPECT_EQ(fallback.compilation_capacity,
            cache::CompileCacheOptions{}.compilation_capacity);
}

// ---------------------------------------------------------------------------
// Engine-level semantics.
// ---------------------------------------------------------------------------

std::vector<workload::JobInstance> Jobs(int templates = 12, int jobs = 24) {
  workload::WorkloadDriver driver(
      {.num_templates = templates, .jobs_per_day = jobs, .seed = 404});
  return driver.DayJobs(0);
}

/// An engine with the default cache sizes, whatever the environment says.
engine::ScopeEngine CachedEngine() {
  return engine::ScopeEngine({}, {}, cache::CompileCacheOptions{});
}

/// Full-fidelity serialization of a compilation for byte-identity checks.
std::string Serialize(const opt::CompilationOutput& out) {
  char cost[64];
  std::snprintf(cost, sizeof(cost), "%.17g", out.est_cost);
  return out.plan.ToString() + "|" + cost + "|" + out.signature.ToString();
}

TEST(CompilationCacheTest, CachedEqualsReferenceAcrossConfigs) {
  engine::ScopeEngine cached = CachedEngine();
  std::vector<opt::RuleConfig> configs = {
      opt::RuleConfig::Default(),
      opt::RuleConfig::DefaultWithFlip(opt::rules::kEagerAggregationLeft),
      opt::RuleConfig::DefaultWithFlip(opt::rules::kBroadcastJoinAggressive),
      opt::RuleConfig::DefaultWithFlip(opt::rules::kJoinCommute),
      opt::RuleConfig::DefaultWithFlip(opt::rules::kHashJoinImpl),
  };
  for (const auto& job : Jobs()) {
    for (const auto& config : configs) {
      auto a = cached.CompileShared(job, config);
      auto b = ReferenceCompile(job, config);
      ASSERT_EQ(a.ok(), b.ok()) << job.job_id;
      if (!a.ok()) {
        // Failures must be identical too (the span fix-point observes them).
        EXPECT_EQ(a.status(), b.status()) << job.job_id;
        continue;
      }
      EXPECT_EQ(Serialize(**a), Serialize(*b)) << job.job_id;
      // And the cached engine must keep answering identically from cache.
      auto again = cached.CompileShared(job, config);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(Serialize(**a), Serialize(**again)) << job.job_id;
    }
  }
  EXPECT_GT(Series("cache.compilations.hits"), 0.0);
  EXPECT_GT(Series("cache.compilations.misses"), 0.0);
}

TEST(CompilationCacheTest, RepeatedCompileSharesOneEntry) {
  engine::ScopeEngine engine = CachedEngine();
  workload::JobInstance job = Jobs(4, 4)[0];
  auto first = engine.CompileShared(job, opt::RuleConfig::Default());
  auto second = engine.CompileShared(job, opt::RuleConfig::Default());
  ASSERT_TRUE(first.ok() && second.ok());
  // Same immutable entry, not a copy.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(Series("cache.compilations.misses"), 1.0);
  EXPECT_EQ(Series("cache.compilations.hits"), 1.0);
  EXPECT_EQ(Series("cache.compilations.entries"), 1.0);
}

TEST(CompilationCacheTest, FrontEndMemoParsesEachJobOnce) {
  engine::ScopeEngine engine = CachedEngine();
  workload::JobInstance job = Jobs(4, 8)[0];
  auto span = advisor::ComputeJobSpan(engine, job);
  ASSERT_TRUE(span.ok());
  // The fix-point compiled `iterations` distinct configs but parsed once.
  EXPECT_GE(span->iterations, 2);
  EXPECT_EQ(Series("cache.front_end.misses"), 1.0);
  EXPECT_EQ(Series("cache.front_end.hits") + Series("cache.front_end.misses"),
            span->iterations);
  EXPECT_EQ(Series("cache.compilations.misses"), span->iterations);

  // The front-end plan is shared by every consumer of this job.
  auto fe1 = engine.CompileFrontEnd(job);
  auto fe2 = engine.CompileFrontEnd(job);
  ASSERT_TRUE(fe1.ok() && fe2.ok());
  EXPECT_EQ(fe1->get(), fe2->get());
}

TEST(CompilationCacheTest, ParseErrorsAreCachedAndIdentical) {
  engine::ScopeEngine cached = CachedEngine();
  workload::JobInstance job = Jobs(4, 4)[0];
  job.script = "THIS IS NOT SCOPE";
  auto a = cached.CompileShared(job, opt::RuleConfig::Default());
  auto b = cached.CompileShared(job, opt::RuleConfig::Default());
  auto c = ReferenceCompile(job, opt::RuleConfig::Default());
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status(), b.status());
  EXPECT_EQ(a.status(), c.status());
}

TEST(CompilationCacheTest, LruBoundHoldsUnderWorkloadChurn) {
  cache::CompileCacheOptions options;
  options.compilation_capacity = 16;
  options.front_end_capacity = 8;
  options.num_shards = 2;
  engine::ScopeEngine engine({}, {}, options);
  for (const auto& job : Jobs(16, 64)) {
    auto out = engine.CompileShared(job, opt::RuleConfig::Default());
    (void)out;
  }
  // Rounded-up per-shard slices: at most one extra entry per shard.
  EXPECT_LE(Series("cache.compilations.entries"), 16.0 + 2.0);
  EXPECT_LE(Series("cache.front_end.entries"), 8.0 + 2.0);
  EXPECT_GT(Series("cache.compilations.evictions"), 0.0);
}

TEST(CompilationCacheTest, ConcurrentCompilesAreIdenticalToSerial) {
  engine::ScopeEngine cached = CachedEngine();
  std::vector<workload::JobInstance> jobs = Jobs(8, 32);
  std::vector<std::string> serial(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto out = ReferenceCompile(jobs[i], opt::RuleConfig::Default());
    ASSERT_TRUE(out.ok());
    serial[i] = Serialize(*out);
  }
  // 8 threads hammer the shared cache, repeating each job 4 times so the
  // same keys are hit while still warm and while being inserted.
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t r = 0; r < 4; ++r) {
        for (size_t i = t % 2; i < jobs.size(); i += 2) {
          auto out = cached.CompileShared(jobs[i], opt::RuleConfig::Default());
          if (!out.ok() || Serialize(**out) != serial[i]) mismatch = true;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch);
}

TEST(CompilationCacheTest, EvaluateFlipToleratesHandBuiltFeatures) {
  // Tools (e.g. examples/whatif_explorer) assemble JobFeatures by hand;
  // a null default_compilation must fall back to a cached default compile,
  // not crash, and must produce the same result as the populated path.
  engine::ScopeEngine engine = CachedEngine();
  bandit::PersonalizerService personalizer({.seed = 17});
  advisor::Recommender recommender(&engine, &personalizer, {});
  workload::JobInstance job = Jobs(6, 12)[0];
  auto span = advisor::ComputeJobSpan(engine, job);
  ASSERT_TRUE(span.ok());
  ASSERT_TRUE(span->span.Any());
  int rule = span->span.Positions()[0];

  advisor::JobFeatures populated;
  populated.row.job_id = job.job_id;
  populated.row.instance = job;
  populated.span = span->span;
  populated.default_compilation = span->default_compilation;
  advisor::JobFeatures bare = populated;
  bare.default_compilation = nullptr;

  for (int r : {rule, -1}) {
    advisor::Recommendation a = recommender.EvaluateFlip(populated, r);
    advisor::Recommendation b = recommender.EvaluateFlip(bare, r);
    EXPECT_EQ(a.est_cost_default, b.est_cost_default);
    EXPECT_EQ(a.est_cost_new, b.est_cost_new);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.reward, b.reward);
  }
}

// ---------------------------------------------------------------------------
// End to end: fig10-style pipeline output must be byte-identical across
// thread counts, where the shared cache sees a different access order.
// ---------------------------------------------------------------------------

/// Everything externally visible from a mini fig10 run: per-day pipeline
/// reports, the SIS upload history, and the hinted eval-day execution.
struct MiniFig10Output {
  std::string reports;
  std::vector<std::string> sis_files;
  size_t active_hints = 0;
  std::string eval_view;
};

MiniFig10Output RunMiniFig10(int threads) {
  experiments::ExperimentEnv env({.num_templates = 24,
                                  .jobs_per_day = 48,
                                  .seed = 31,
                                  .threads = threads});
  sis::StatsInsightService sis;
  advisor::PipelineConfig config;
  config.flighting.total_budget_machine_hours = 1e6;
  config.validation.min_training_samples = 6;
  config.recommender.uniform_probes_per_job = 3;
  config.personalizer.epsilon = 0.2;
  advisor::QoAdvisorPipeline pipeline(&env.engine(), &sis, config,
                                      env.runtime());
  MiniFig10Output out;
  char buf[128];
  const int kTrainDays = 6;
  for (int day = 0; day < kTrainDays; ++day) {
    auto report = pipeline.RunDay(env.BuildDayView(day, &sis));
    EXPECT_TRUE(report.ok());
    if (!report.ok()) continue;
    std::snprintf(buf, sizeof(buf),
                  "d%d jobs=%zu fwd=%zu flights=%zu/%zu val=%zu up=%zu "
                  "budget=%.17g\n",
                  report->day, report->feature_gen.input_jobs,
                  report->recommender.forwarded, report->flights_success,
                  report->flight_requests, report->validated,
                  report->hints_uploaded, report->flight_budget_used_hours);
    out.reports += buf;
  }
  for (const auto& file : sis.history()) {
    out.sis_files.push_back(file.Serialize());
  }
  out.active_hints = sis.active_hints();
  // The eval day runs under whatever hints went live — the paper's Table 2 /
  // fig10 measurement path, exercising the hinted-recompile fallback too.
  telemetry::WorkloadView view = env.BuildDayView(kTrainDays, &sis);
  for (const auto& row : view.rows) {
    std::snprintf(buf, sizeof(buf), "%s c=%.17g l=%.17g pn=%.17g v=%d\n",
                  row.job_id.c_str(), row.est_cost, row.latency_sec,
                  row.pn_hours, row.total_vertices);
    out.eval_view += row.rule_signature.ToString(64) + buf;
  }
  return out;
}

TEST(CompilationCacheTest, PipelineOutputIdenticalAcrossThreads) {
  MiniFig10Output reference = RunMiniFig10(/*threads=*/1);
  EXPECT_FALSE(reference.reports.empty());
  EXPECT_FALSE(reference.eval_view.empty());
  // The pipeline must actually have produced steering output to compare.
  EXPECT_FALSE(reference.sis_files.empty());
  MiniFig10Output run = RunMiniFig10(/*threads=*/4);
  EXPECT_EQ(run.reports, reference.reports);
  EXPECT_EQ(run.sis_files, reference.sis_files);
  EXPECT_EQ(run.active_hints, reference.active_hints);
  EXPECT_EQ(run.eval_view, reference.eval_view);
}

}  // namespace
}  // namespace qo
