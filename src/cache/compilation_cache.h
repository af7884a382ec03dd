// The two-level compilation cache behind ScopeEngine::CompileShared.
//
// Level 1 (front-end memo): rendered script -> parsed + resolved
// LogicalPlan, keyed by (script hash, catalog-stats fingerprint). The front
// end is config-independent, so the span fix-point's up-to-8 recompiles,
// multi-flip search, recommendation recompiles and flighting all parse each
// job occurrence exactly once — and occurrences of the same template whose
// rendered script and statistics are identical share one parse across the
// whole batch.
//
// Level 2 (compilation cache): full CompilationOutput keyed by (script hash,
// catalog-stats fingerprint, RuleConfig bits). Repeated (job, config)
// compilations across pipeline stages — default compiles in view building,
// span seeding, multi-flip baselines, recommendation's DefaultWithFlip
// probes, and the A/B flights that recompile both arms — hit instead of
// recompute.
//
// Both levels cache failures too: a config that fails to compile keeps
// failing identically from cache (the span fix-point and flip evaluation
// depend on observing those failures deterministically).
//
// Invalidation is by fingerprint: statistics drift or script edits change
// the key, and stale entries age out of the sharded LRU. Entries are
// immutable shared_ptr<const ...>, so results are byte-identical to a fresh
// compile (tests compare against one) at any thread count and capacity.
//
// Env knobs (read by Options::FromEnv, the ScopeEngine default):
//   QO_COMPILE_CACHE_CAPACITY=N   level-2 entry bound (level 1 gets N/4)
//   QO_COMPILE_CACHE_SHARDS=N     shard count for both levels
#ifndef QO_CACHE_COMPILATION_CACHE_H_
#define QO_CACHE_COMPILATION_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "cache/sharded_lru.h"
#include "common/bitvector.h"
#include "common/status.h"
#include "optimizer/cross_config_memo.h"
#include "optimizer/physical_plan.h"
#include "scope/logical_plan.h"

namespace qo::cache {

/// Level-1 key: everything the config-independent front end reads.
struct FrontEndKey {
  uint64_t script_hash = 0;
  uint64_t catalog_fingerprint = 0;

  bool operator==(const FrontEndKey& o) const {
    return script_hash == o.script_hash &&
           catalog_fingerprint == o.catalog_fingerprint;
  }
};

/// Level-2 key: the front-end key plus the full rule configuration.
struct CompilationKey {
  FrontEndKey front_end;
  BitVector256 config;

  bool operator==(const CompilationKey& o) const {
    return front_end == o.front_end && config == o.config;
  }
};

struct FrontEndKeyHasher {
  size_t operator()(const FrontEndKey& k) const;
};

struct CompilationKeyHasher {
  size_t operator()(const CompilationKey& k) const;
};

/// An immutable cached front-end result: the logical plan, or the compile
/// error that producing it raised. The cross-config memo rides on the entry
/// because its stored results are valid exactly as long as this plan +
/// catalog fingerprint pair is — eviction or stats drift retires both
/// together. `mutable` + internal mutex, same discipline as the prepared
/// execution-profile slot on CompilationOutput.
struct CachedFrontEnd {
  Status status;
  scope::LogicalPlan plan;  ///< meaningful only when status.ok()
  mutable opt::CrossConfigMemo cross_config_memo;
};

/// An immutable cached compilation: the full optimizer output, or the
/// compile error the (job, config) pair deterministically produces. The
/// output is held by shared_ptr so the cross-config memo, every L2 entry it
/// serves, and every CompileShared caller reference one CompilationOutput —
/// a memo hit is a refcount bump, never a deep plan copy.
struct CachedCompilation {
  Status status;
  /// Null exactly when !status.ok().
  std::shared_ptr<const opt::CompilationOutput> output;
};

using FrontEndPtr = std::shared_ptr<const CachedFrontEnd>;
using CompilationPtr = std::shared_ptr<const CachedCompilation>;

struct CompileCacheOptions {
  /// Level-2 bound (full compilations; the dominant footprint).
  size_t compilation_capacity = 16384;
  /// Level-1 bound (logical plans; one entry serves many configs).
  size_t front_end_capacity = 4096;
  int num_shards = 16;

  /// Reads the QO_COMPILE_CACHE_* environment knobs documented above;
  /// unset variables keep the defaults.
  static CompileCacheOptions FromEnv();
};

/// Thread-safe two-level cache. Owned by a ScopeEngine (keys do not cover
/// optimizer options; the engine folds its options fingerprint into the
/// catalog fingerprint, so sharing across engines stays sound).
class CompilationCache {
 public:
  explicit CompilationCache(CompileCacheOptions options);

  /// Level 1: returns the cached front-end result for `key`, computing it
  /// with `compile` (called without any cache lock) on miss.
  FrontEndPtr GetOrParse(const FrontEndKey& key,
                         const std::function<Result<scope::LogicalPlan>()>&
                             compile);

  /// Level 2: returns the cached compilation for `key`, computing it with
  /// `compile` on miss. The miss handler returns an already-shared output so
  /// a producer that also retains the result (the cross-config memo) never
  /// forces a copy.
  CompilationPtr GetOrCompile(
      const CompilationKey& key,
      const std::function<
          Result<std::shared_ptr<const opt::CompilationOutput>>()>& compile);

  const CompileCacheOptions& options() const { return options_; }

  /// Hit/miss/eviction counts of each level.
  Stats front_end_stats() const { return front_end_.stats(); }
  Stats compilation_stats() const { return compilations_.stats(); }

  void Clear();

 private:
  CompileCacheOptions options_;
  ShardedLruCache<FrontEndKey, FrontEndPtr, FrontEndKeyHasher> front_end_;
  ShardedLruCache<CompilationKey, CompilationPtr, CompilationKeyHasher>
      compilations_;
};

}  // namespace qo::cache

#endif  // QO_CACHE_COMPILATION_CACHE_H_
