// Heap-allocation budget of the optimizer's memo search. Allocation counts
// are deterministic for a fixed job set and binary, so unlike wall-clock
// time they can be gated exactly: this binary replaces the global
// operator new/delete with counting versions and runs the pinned job set
// single-threaded through both optimizer entry points.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "optimizer/optimizer.h"
#include "optimizer/rules.h"
#include "common/symbol_table.h"
#include "optimizer_job_set.h"
#include "scope/catalog.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

void* CountedAlloc(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every form, so a sanitizer runtime's own versions never take over one.
void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace qo::opt {
namespace {

struct AllocTally {
  uint64_t runs = 0;
  uint64_t allocs = 0;
  uint64_t bytes = 0;

  template <typename Fn>
  void Measure(Fn&& fn) {
    const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const uint64_t b0 = g_bytes.load(std::memory_order_relaxed);
    fn();
    allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    bytes += g_bytes.load(std::memory_order_relaxed) - b0;
    ++runs;
  }

  void Print(const char* what) const {
    std::printf("%s: %llu runs, %llu allocs (%.1f/run), %.0f bytes/run\n",
                what, static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(allocs),
                static_cast<double>(allocs) / static_cast<double>(runs),
                static_cast<double>(bytes) / static_cast<double>(runs));
  }
};

/// One pass over the pinned job set: every config through OptimizeTracked
/// (the memo's miss path, exporting the normalized plan), and every config
/// that agrees with Default's validate+normalize footprint through
/// OptimizeFromNormalized over Default's normalized plan (the memo's
/// normalized tier). Results are destroyed outside the measured region.
void RunPass(const std::vector<PinnedJob>& jobs,
             const std::vector<RuleConfig>& configs, AllocTally* tracked,
             AllocTally* restarted) {
  const RuleConfig base = RuleConfig::Default();
  for (const PinnedJob& pj : jobs) {
    Optimizer optimizer(pj.job.catalog);
    BitVector256 base_norm;
    NormalizedPlan normalized;
    ASSERT_TRUE(optimizer
                    .OptimizeTracked(pj.plan, base, &base_norm, nullptr,
                                     &normalized)
                    .ok());
    for (const RuleConfig& config : configs) {
      BitVector256 norm_consulted, post_consulted;
      NormalizedPlan exported;
      std::optional<Result<CompilationOutput>> out;
      tracked->Measure([&] {
        out.emplace(optimizer.OptimizeTracked(
            pj.plan, config, &norm_consulted, &post_consulted, &exported));
      });
      if (!AgreesOn(config, base, base_norm)) continue;
      restarted->Measure([&] {
        out.emplace(optimizer.OptimizeFromNormalized(normalized, config,
                                                     &post_consulted));
      });
    }
  }
}

// Baseline: the counts of commit 2b83840, the last build before the
// allocation-lean memo search, over this job set (GCC 12, libstdc++,
// Release). A change that adds allocations to the search fails here before
// any wall-clock benchmark could see it.
constexpr uint64_t kBaselineTrackedRuns = 3535;
constexpr uint64_t kBaselineTrackedAllocs = 1069992;  // 302.7 per run
constexpr uint64_t kBaselineRestartedRuns = 2971;
constexpr uint64_t kBaselineRestartedAllocs = 696713;  // 234.5 per run

// Ceilings: the counts measured once plan, memo and physical plan held
// names only as symbols (402,070 = 113.7 per run and 113,692 = 38.3 per
// run), plus 5%.
constexpr uint64_t kTrackedAllocsCeiling = 422174;    // 119.4 per run
constexpr uint64_t kRestartedAllocsCeiling = 119377;  // 40.2 per run

TEST(OptimizerAllocTest, AllocationsPerRunStayWithinBudget) {
  const std::vector<PinnedJob> jobs = PinnedJobs();
  const std::vector<RuleConfig> configs = PinnedConfigs();
  // Warm-up pass: interns every symbol and touches every lazy static, so
  // the measured pass counts only the optimizer's own allocations.
  {
    AllocTally tracked, restarted;
    RunPass(jobs, configs, &tracked, &restarted);
  }
  AllocTally tracked, restarted;
  RunPass(jobs, configs, &tracked, &restarted);
  tracked.Print("OptimizeTracked");
  restarted.Print("OptimizeFromNormalized");

  ASSERT_EQ(tracked.runs, kBaselineTrackedRuns);
  ASSERT_EQ(restarted.runs, kBaselineRestartedRuns);
  // Same run counts, so comparing totals compares per-run means.
  EXPECT_LE(tracked.allocs, kTrackedAllocsCeiling)
      << "OptimizeTracked allocations/run above the ceiling ("
      << 100.0 * static_cast<double>(tracked.allocs) / kBaselineTrackedAllocs
      << "% of the baseline)";
  // A restart starts from the shared memo seed and copies none of it, so
  // its bound is the tighter one.
  EXPECT_LE(restarted.allocs, kRestartedAllocsCeiling)
      << "OptimizeFromNormalized allocations/run above the ceiling ("
      << 100.0 * static_cast<double>(restarted.allocs) /
             kBaselineRestartedAllocs
      << "% of the baseline)";
}

/// A catalog shaped like a generated job's: a fact table and two dims,
/// with paths under `prefix` (equal-length prefixes give equal shapes).
scope::Catalog JobShapedCatalog(const std::string& prefix) {
  scope::Catalog catalog;
  for (const char* table : {"fact", "dim0", "dim1"}) {
    scope::TableStats stats;
    for (int c = 0; c < 10; ++c) {
      stats.columns["col" + std::to_string(c)] = {1e4, 1.1e4};
    }
    catalog.RegisterTable(prefix + table, std::move(stats));
  }
  return catalog;
}

uint64_t BytesToCopy(const scope::Catalog& catalog) {
  const uint64_t b0 = g_bytes.load(std::memory_order_relaxed);
  const scope::Catalog copy(catalog);
  const uint64_t bytes = g_bytes.load(std::memory_order_relaxed) - b0;
  EXPECT_EQ(copy.StatsFingerprint(), catalog.StatsFingerprint());
  return bytes;
}

// A catalog costs what its own tables cost: copying one must not grow with
// the process-wide symbol table, which only ever grows over a long run.
TEST(CatalogAllocTest, CopyBytesDoNotGrowWithTheSymbolTable) {
  const scope::Catalog before = JobShapedCatalog("store://alloc_gate/a/");
  const uint64_t before_bytes = BytesToCopy(before);
  for (int i = 0; i < 100000; ++i) {
    Sym("alloc_gate_fresh_symbol_" + std::to_string(i));
  }
  // Fresh paths: their ids come after the 100k symbols just interned.
  const scope::Catalog after = JobShapedCatalog("store://alloc_gate/b/");
  const uint64_t after_bytes = BytesToCopy(after);
  std::printf("catalog copy: %llu bytes before, %llu after 100k symbols\n",
              static_cast<unsigned long long>(before_bytes),
              static_cast<unsigned long long>(after_bytes));
  EXPECT_GT(before_bytes, 0u);
  EXPECT_EQ(after_bytes, before_bytes);
}

}  // namespace
}  // namespace qo::opt
