// Tests for the compilation cache (src/cache/: the front-end LRU whose
// entries carry the cross-config memo): sharded-LRU semantics, fingerprint
// keys, failure caching, concurrency, byte-identity with the reference
// oracle (a direct front end + optimizer run), and the end-to-end guarantee
// that pipeline outputs are byte-identical at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/compilation_cache.h"
#include "cache/fingerprint.h"
#include "cache/reclaimer.h"
#include "cache/sharded_lru.h"
#include "common/hash.h"
#include "core/span.h"
#include "engine/engine.h"
#include "bandit/personalizer.h"
#include "core/pipeline.h"
#include "core/recommend.h"
#include "experiments/experiments.h"
#include "obs/metrics.h"
#include "optimizer/cross_config_memo.h"
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

/// Cross-config memo outcome counts. They are process-wide, so tests read
/// them as deltas.
struct MemoCounts {
  double full_hits = Series("optimizer.memo.full_hits");
  double norm_hits = Series("optimizer.memo.norm_hits");
  double misses = Series("optimizer.memo.misses");

  MemoCounts Since(const MemoCounts& before) const {
    MemoCounts d = *this;
    d.full_hits -= before.full_hits;
    d.norm_hits -= before.norm_hits;
    d.misses -= before.misses;
    return d;
  }
};

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

TEST(ShardedLruTest, ShardCountClampsAndHugeCapacityDoesNotWrap) {
  // More shards than entries: clamped to the capacity, so a 10^8-shard
  // request allocates 8 shards and the bound still holds.
  IntCache clamped(/*capacity=*/8, /*num_shards=*/100000000);
  EXPECT_EQ(clamped.num_shards(), 8u);
  for (int i = 0; i < 1000; ++i) clamped.Insert(i, i);
  EXPECT_EQ(clamped.size(), 8u);
  // The per-shard slice of a huge capacity must not overflow into a tiny
  // cache (the old ceiling division wrapped around at ULLONG_MAX).
  IntCache huge(std::numeric_limits<size_t>::max(), /*num_shards=*/16);
  for (int i = 0; i < 1000; ++i) huge.Insert(i, i);
  EXPECT_EQ(huge.size(), 1000u);
  EXPECT_EQ(huge.stats().evictions, 0u);
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

TEST(ShardedLruTest, EvictedValuesAreHandedBack) {
  IntCache c(/*capacity=*/2, /*num_shards=*/1);
  std::vector<int> evicted;
  c.Insert(1, 10, &evicted);
  c.Insert(2, 20, &evicted);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(c.GetOrCompute(3, [] { return 30; }, &evicted), 30);
  c.Insert(4, 40, &evicted);
  EXPECT_EQ(evicted, (std::vector<int>{10, 20}));
  EXPECT_EQ(c.stats().evictions, 2u);
}

// ---------------------------------------------------------------------------
// Reclaimer.
// ---------------------------------------------------------------------------

/// Front-end entries whose deleter records the thread that frees them.
class FreeLog {
 public:
  /// With a `gate`, the deleter first releases WaitUntilBlocked() and then
  /// waits for the gate to open.
  cache::FrontEndPtr Entry(std::shared_future<void> gate = {}) {
    return cache::FrontEndPtr(
        new cache::CachedFrontEnd, [this, gate](const cache::CachedFrontEnd* e) {
          if (gate.valid()) {
            blocked_.set_value();
            gate.wait();
          }
          {
            std::lock_guard<std::mutex> lock(mu_);
            threads_.push_back(std::this_thread::get_id());
          }
          delete e;
        });
  }
  std::vector<std::thread::id> threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }
  /// Blocks until a gated entry is being freed. Call once.
  void WaitUntilBlocked() { blocked_.get_future().wait(); }

 private:
  std::mutex mu_;
  std::vector<std::thread::id> threads_;
  std::promise<void> blocked_;
};

/// Registry counters are process-wide; tests read them as deltas.
struct FreeCounts {
  double reclaimed = Series("cache.front_end.reclaimed");
  double inline_frees = Series("cache.front_end.inline_frees");
};

TEST(ReclaimerTest, FreesOffTheCallingThreadAndDrainsOnDestroy) {
  const FreeCounts before;
  FreeLog log;
  {
    cache::Reclaimer reclaimer;
    auto retire = [&](int n) {
      for (int i = 0; i < n; ++i) {
        std::vector<cache::FrontEndPtr> evicted = {log.Entry()};
        reclaimer.Retire(&evicted);
        EXPECT_TRUE(evicted.empty());
      }
    };
    retire(50);
    reclaimer.Flush();
    EXPECT_EQ(log.threads().size(), 50u);
    retire(50);
  }
  // The destructor freed whatever was still pending, all on its thread.
  const std::vector<std::thread::id> threads = log.threads();
  ASSERT_EQ(threads.size(), 100u);
  for (const std::thread::id id : threads) {
    EXPECT_NE(id, std::this_thread::get_id());
  }
  const FreeCounts after;
  EXPECT_EQ(after.reclaimed - before.reclaimed, 100.0);
  EXPECT_EQ(after.inline_frees - before.inline_frees, 0.0);
}

TEST(ReclaimerTest, FreesInlineOnceTheCapIsPending) {
  const FreeCounts before;
  FreeLog log;
  std::promise<void> release;
  {
    cache::Reclaimer reclaimer;
    // Stall the thread inside its first batch, then fill the pending list
    // to the cap: the next entry has nowhere to go and dies in Retire.
    std::vector<cache::FrontEndPtr> evicted = {
        log.Entry(release.get_future().share())};
    reclaimer.Retire(&evicted);
    log.WaitUntilBlocked();
    for (size_t i = 0; i < cache::Reclaimer::kMaxPending; ++i) {
      evicted = {log.Entry()};
      reclaimer.Retire(&evicted);
    }
    EXPECT_TRUE(log.threads().empty());
    evicted = {log.Entry()};
    reclaimer.Retire(&evicted);
    EXPECT_TRUE(evicted.empty());
    const std::vector<std::thread::id> freed_inline = log.threads();
    release.set_value();  // before any ASSERT can leave the thread blocked
    ASSERT_EQ(freed_inline.size(), 1u);
    EXPECT_EQ(freed_inline[0], std::this_thread::get_id());
  }
  const std::vector<std::thread::id> threads = log.threads();
  ASSERT_EQ(threads.size(), cache::Reclaimer::kMaxPending + 2);
  for (size_t i = 1; i < threads.size(); ++i) {
    EXPECT_NE(threads[i], std::this_thread::get_id()) << i;
  }
  const FreeCounts after;
  EXPECT_EQ(after.reclaimed - before.reclaimed,
            static_cast<double>(cache::Reclaimer::kMaxPending + 1));
  EXPECT_EQ(after.inline_frees - before.inline_frees, 1.0);
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

std::vector<workload::JobInstance> Jobs(int templates = 12, int jobs = 24) {
  workload::WorkloadDriver driver(
      {.num_templates = templates, .jobs_per_day = jobs, .seed = 404});
  return driver.DayJobs(0);
}

// The front-end key's script hash: any one-byte edit of a real script, at
// every tail length (so each of the last 7 bytes lands in the zero-padded
// tail word once), and an appended '\0' must all change it.
TEST(FingerprintTest, WideScriptHashSeesEveryByte) {
  const std::string script = Jobs(4, 4)[0].script;
  ASSERT_GT(script.size(), 16u);
  auto hash = [](const std::string& s) {
    return HashBytesWide(s.data(), s.size());
  };
  for (size_t trim = 0; trim < 8; ++trim) {
    const std::string base = script.substr(0, script.size() - trim);
    const uint64_t h = hash(base);
    for (size_t i = 0; i < base.size(); ++i) {
      for (int mask : {0x01, 0x80}) {
        std::string edited = base;
        edited[i] = static_cast<char>(edited[i] ^ mask);
        EXPECT_NE(hash(edited), h) << "trim " << trim << " byte " << i;
      }
    }
    EXPECT_NE(hash(base + '\0'), h) << "trim " << trim;
  }
}

// ---------------------------------------------------------------------------
// Engine-level semantics.
// ---------------------------------------------------------------------------

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
  const MemoCounts before;
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
  // Each repeat is served by the memo's full tier; the first compiles
  // include real optimizer runs.
  const MemoCounts delta = MemoCounts().Since(before);
  EXPECT_GT(delta.full_hits, 0.0);
  EXPECT_GT(delta.misses, 0.0);
  EXPECT_GT(Series("cache.front_end.hits"), 0.0);
  EXPECT_GT(Series("cache.front_end.misses"), 0.0);
}

TEST(CompilationCacheTest, RepeatedCompileSharesOneEntry) {
  engine::ScopeEngine engine = CachedEngine();
  workload::JobInstance job = Jobs(4, 4)[0];
  const MemoCounts before;
  auto first = engine.CompileShared(job, opt::RuleConfig::Default());
  auto second = engine.CompileShared(job, opt::RuleConfig::Default());
  ASSERT_TRUE(first.ok() && second.ok());
  // Same immutable entry, not a copy.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(Series("cache.front_end.misses"), 1.0);
  EXPECT_EQ(Series("cache.front_end.hits"), 1.0);
  EXPECT_EQ(Series("cache.front_end.entries"), 1.0);
  // One optimizer run; the exact repeat is a full-tier memo hit.
  const MemoCounts delta = MemoCounts().Since(before);
  EXPECT_EQ(delta.misses, 1.0);
  EXPECT_EQ(delta.norm_hits, 0.0);
  EXPECT_EQ(delta.full_hits, 1.0);
}

TEST(CompilationCacheTest, RepeatCompileIsAMemoHitNotAnOptimizerRun) {
  struct MetricsOn {
    MetricsOn() { obs::SetMetricsEnabledForTest(1); }
    ~MetricsOn() { obs::SetMetricsEnabledForTest(-1); }
  } metrics_on;
  engine::ScopeEngine engine = CachedEngine();
  workload::JobInstance job = Jobs(4, 4)[0];
  const opt::RuleConfig config =
      opt::RuleConfig::DefaultWithFlip(opt::rules::kEagerAggregationLeft);
  ASSERT_TRUE(engine.CompileShared(job, config).ok());
  auto optimize_samples = [] {
    const obs::MetricsSnapshot snap = obs::Registry::Get().Snapshot();
    const obs::HistogramSnapshot* h = snap.FindHistogram("span.optimize");
    return h == nullptr ? uint64_t{0} : h->total;
  };
  const uint64_t samples_before = optimize_samples();
  const MemoCounts before;
  ASSERT_TRUE(engine.CompileShared(job, config).ok());
  // "span.optimize" times optimizer runs only; a full-tier hit is not one.
  EXPECT_EQ(MemoCounts().Since(before).full_hits, 1.0);
  EXPECT_EQ(optimize_samples(), samples_before);
}

TEST(CompilationCacheTest, EditedLastByteMissesTheFrontEnd) {
  engine::ScopeEngine engine = CachedEngine();
  workload::JobInstance job = Jobs(4, 4)[0];
  ASSERT_TRUE(engine.CompileShared(job, opt::RuleConfig::Default()).ok());
  ASSERT_FALSE(job.script.empty());
  // The last byte is the one a word-at-a-time key hashes in the padded
  // tail word; swapping trailing whitespace keeps the job compilable.
  workload::JobInstance edited = job;
  char& last = edited.script.back();
  last = last == '\n' ? ' ' : '\n';
  auto out = engine.CompileShared(edited, opt::RuleConfig::Default());
  auto ref = ReferenceCompile(edited, opt::RuleConfig::Default());
  EXPECT_EQ(Series("cache.front_end.misses"), 2.0);
  ASSERT_EQ(out.ok(), ref.ok());
  if (out.ok()) {
    EXPECT_EQ(Serialize(**out), Serialize(*ref));
  } else {
    EXPECT_EQ(out.status(), ref.status());
  }
}

TEST(CompilationCacheTest, FrontEndMemoParsesEachJobOnce) {
  engine::ScopeEngine engine = CachedEngine();
  workload::JobInstance job = Jobs(4, 8)[0];
  const MemoCounts before;
  auto span = advisor::ComputeJobSpan(engine, job);
  ASSERT_TRUE(span.ok());
  // The fix-point compiled `iterations` distinct configs but parsed once.
  EXPECT_GE(span->iterations, 2);
  EXPECT_EQ(Series("cache.front_end.misses"), 1.0);
  EXPECT_EQ(Series("cache.front_end.hits") + Series("cache.front_end.misses"),
            span->iterations);
  // Every compile probed the job's memo exactly once.
  const MemoCounts delta = MemoCounts().Since(before);
  EXPECT_EQ(delta.full_hits + delta.norm_hits + delta.misses,
            span->iterations);

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
  options.capacity = 8;
  options.num_shards = 2;
  engine::ScopeEngine engine({}, {}, options);
  EXPECT_EQ(Series("cache.front_end.capacity"), 8.0);
  for (const auto& job : Jobs(16, 64)) {
    auto out = engine.CompileShared(job, opt::RuleConfig::Default());
    (void)out;
  }
  // Rounded-up per-shard slices: at most one extra entry per shard.
  EXPECT_LE(Series("cache.front_end.entries"), 8.0 + 2.0);
  EXPECT_GT(Series("cache.front_end.evictions"), 0.0);
}

// An evicted entry leaves the compile path through the reclaimer: whatever
// the thread has got to, the engine's destructor frees it, and every
// eviction is counted as freed exactly once.
TEST(CompilationCacheTest, EvictedEntriesAreFreedByEngineDestruction) {
  const FreeCounts before;
  std::weak_ptr<const scope::LogicalPlan> first;
  double evictions = 0;
  {
    cache::CompileCacheOptions options;
    options.capacity = 1;
    engine::ScopeEngine engine({}, {}, options);
    const std::vector<workload::JobInstance> jobs = Jobs(6, 12);
    {
      auto plan = engine.CompileFrontEnd(jobs[0]);
      ASSERT_TRUE(plan.ok());
      first = *plan;  // aliases the cache entry's control block
    }
    EXPECT_FALSE(first.expired());
    for (const auto& job : jobs) {
      auto out = engine.CompileShared(job, opt::RuleConfig::Default());
      ASSERT_TRUE(out.ok()) << job.job_id;
    }
    // jobs[0] is still resident; each later job evicts its predecessor.
    evictions = Series("cache.front_end.evictions");
    EXPECT_EQ(evictions, static_cast<double>(jobs.size() - 1));
  }
  EXPECT_TRUE(first.expired());
  const FreeCounts after;
  EXPECT_EQ(after.reclaimed - before.reclaimed +
                (after.inline_frees - before.inline_frees),
            evictions);
}

// A full normalized tier drops a new footprint and counts the drop, but a
// footprint it already covers is redundant, not dropped, even at capacity.
TEST(CrossConfigMemoTest, NormTierDropsAtCapacityAreCounted) {
  // Footprint k consults rule k alone and stores it enabled, so no two of
  // them cover each other.
  auto bit = [](int k) {
    BitVector256 b;
    b.Set(k);
    return b;
  };
  opt::CrossConfigMemo memo;
  const double dropped = Series("optimizer.memo.norm_dropped");
  opt::NormalizedPlan plan;
  for (size_t k = 0; k < opt::CrossConfigMemo::kMaxNormEntries; ++k) {
    plan.fired = bit(static_cast<int>(k));
    memo.InsertNorm(bit(static_cast<int>(k)), bit(static_cast<int>(k)),
                    plan);
  }
  EXPECT_EQ(Series("optimizer.memo.norm_dropped"), dropped);

  const int extra = static_cast<int>(opt::CrossConfigMemo::kMaxNormEntries);
  memo.InsertNorm(bit(extra), bit(extra), plan);
  EXPECT_EQ(Series("optimizer.memo.norm_dropped"), dropped + 1);
  opt::NormalizedPlan found;
  EXPECT_FALSE(memo.FindNorm(bit(extra), &found, nullptr));

  // Footprint 3 again, at capacity: a duplicate, so no drop is counted.
  memo.InsertNorm(bit(3), bit(3), plan);
  EXPECT_EQ(Series("optimizer.memo.norm_dropped"), dropped + 1);
  BitVector256 consulted;
  ASSERT_TRUE(memo.FindNorm(bit(3), &found, &consulted));
  EXPECT_EQ(consulted, bit(3));
  EXPECT_EQ(found.fired, bit(3));  // the first insert's plan, not the last
}

/// 8 threads compile `jobs` on `cached`, each job 4 times under rotating
/// configs, and every result must equal its reference compile.
void ExpectConcurrentCompilesMatchSerial(
    const engine::ScopeEngine& cached,
    const std::vector<workload::JobInstance>& jobs) {
  // The default, two consulted rules (one read during normalization, one
  // after it) and two unwired placeholders: concurrent compiles of one job
  // then race FindFull, FindNorm and InsertFull on the same memo.
  const std::vector<opt::RuleConfig> configs = {
      opt::RuleConfig::Default(),
      opt::RuleConfig::DefaultWithFlip(opt::rules::kFilterIntoScan),
      opt::RuleConfig::DefaultWithFlip(opt::rules::kEagerAggregationLeft),
      opt::RuleConfig::DefaultWithFlip(100),
      opt::RuleConfig::DefaultWithFlip(120),
  };
  // serial[i][c]: the reference plan of jobs[i] under configs[c]. Every
  // reference compile must succeed, so each comparison is of real plans.
  std::vector<std::vector<std::string>> serial(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    for (const opt::RuleConfig& config : configs) {
      auto out = ReferenceCompile(jobs[i], config);
      ASSERT_TRUE(out.ok()) << jobs[i].job_id;
      serial[i].push_back(Serialize(*out));
    }
  }
  // 8 threads hammer the shared cache, repeating each job 4 times so the
  // same keys are hit while still warm and while being inserted; each
  // thread starts its config rotation at a different offset.
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t r = 0; r < 4; ++r) {
        for (size_t i = t % 2; i < jobs.size(); i += 2) {
          const size_t c = (i + r + static_cast<size_t>(t)) % configs.size();
          auto out = cached.CompileShared(jobs[i], configs[c]);
          if (!out.ok() || Serialize(**out) != serial[i][c]) mismatch = true;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch);
}

TEST(CompilationCacheTest, ConcurrentCompilesAreIdenticalToSerial) {
  engine::ScopeEngine cached = CachedEngine();
  ExpectConcurrentCompilesMatchSerial(cached, Jobs(8, 32));
}

// A capacity-4 engine (4 shards of one entry) evicts on nearly every miss,
// so evictions and the hand-off to the reclaimer race with probes and memo
// inserts on entries other threads still hold.
TEST(CompilationCacheTest, ConcurrentCompilesWithEvictionsAreIdenticalToSerial) {
  cache::CompileCacheOptions options;
  options.capacity = 4;
  engine::ScopeEngine cached({}, {}, options);
  ExpectConcurrentCompilesMatchSerial(cached, Jobs(16, 64));
  EXPECT_GT(Series("cache.front_end.evictions"), 0.0);
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
  /// Parses the run's engine made ("cache.front_end.misses") and the
  /// entries it evicted ("cache.front_end.evictions").
  double front_end_misses = 0;
  double front_end_evictions = 0;
};

MiniFig10Output RunMiniFig10(int threads,
                             cache::CompileCacheOptions cache_options = {}) {
  experiments::ExperimentEnv env({.num_templates = 24,
                                  .jobs_per_day = 48,
                                  .seed = 31,
                                  .threads = threads,
                                  .cache = cache_options});
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
  out.front_end_misses = Series("cache.front_end.misses");
  out.front_end_evictions = Series("cache.front_end.evictions");
  return out;
}

// The compile work a mini fig10 run does, pinned to the counts of the build
// that still had a (job, full config) result cache in front of the memo:
// deleting it must not add a parse or an optimizer run. A full-tier insert
// dropped at the memo's cap would make every later compile of that config
// re-run the optimizer, so none may be dropped.
TEST(CompilationCacheTest, MiniFig10CompileWorkIsPinned) {
  obs::Registry::Get().ZeroAllForTest();
  const MiniFig10Output out = RunMiniFig10(/*threads=*/1);
  EXPECT_EQ(Series("optimizer.memo.misses"), 583.0);
  EXPECT_EQ(Series("optimizer.memo.norm_hits"), 475.0);
  EXPECT_EQ(out.front_end_misses, 336.0);
  EXPECT_EQ(Series("optimizer.memo.full_dropped"), 0.0);
  EXPECT_EQ(Series("optimizer.memo.norm_dropped"), 0.0);
}

// The same run on a 32-entry cache, which evicts and re-parses. Where
// evicted entries are freed must not change which entries are evicted or
// when, so every work count below is pinned to the build that freed them
// inline under the shard lock. One shard keeps the eviction order a pure
// function of the access order: shard choice hashes the catalog
// fingerprint, which hashes interned symbol ids, and those depend on what
// earlier tests in the process interned. "bandit.combines" is 0 because the
// pipeline hands the personalizer precombined features.
TEST(CompilationCacheTest, MiniFig10WorkWithEvictionsIsPinned) {
  obs::Registry::Get().ZeroAllForTest();
  const MiniFig10Output out =
      RunMiniFig10(/*threads=*/1, {.capacity = 32, .num_shards = 1});
  EXPECT_EQ(out.front_end_misses, 551.0);
  EXPECT_EQ(out.front_end_evictions, 519.0);
  const std::map<std::string, double> pinned = {
      {"optimizer.memo.misses", 798},    {"optimizer.memo.norm_hits", 451},
      {"optimizer.memo.full_hits", 196}, {"optimizer.memo.full_dropped", 0},
      {"optimizer.memo.norm_dropped", 0},
      {"exec.prepares", 362},            {"bandit.combines", 0},
      {"bandit.precombined_reused", 5384},
      {"flight.batches", 6},             {"flight.success", 23},
      {"flight.failure", 4},             {"flight.timeout", 0},
  };
  const obs::MetricsSnapshot snapshot = obs::Registry::Get().Snapshot();
  for (const auto& [name, value] : pinned) {
    EXPECT_EQ(snapshot.SeriesValue(name), value) << name;
  }
  // The run's engine is gone, so each eviction has been freed exactly once.
  EXPECT_EQ(snapshot.SeriesValue("cache.front_end.reclaimed") +
                snapshot.SeriesValue("cache.front_end.inline_frees"),
            out.front_end_evictions);
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
