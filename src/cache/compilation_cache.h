// The compilation cache behind ScopeEngine::CompileShared: one sharded LRU
// of front-end entries, each carrying its job's cross-config optimizer memo.
//
// An entry maps a rendered script to its parsed + resolved LogicalPlan,
// keyed by (script hash, catalog-stats fingerprint). The front end is
// config-independent, so the span fix-point's up-to-8 recompiles, multi-flip
// search, recommendation recompiles and flighting all parse each job
// occurrence exactly once — and occurrences of the same template whose
// rendered script and statistics are identical share one parse across the
// whole batch.
//
// Compile results live in the entry's CrossConfigMemo
// (optimizer/cross_config_memo.h), keyed by the rule bits the optimizer
// consulted. A config always agrees with its own footprint, so a repeated
// (job, config) compile — default compiles in view building, span seeding,
// multi-flip baselines, recommendation's DefaultWithFlip probes, the A/B
// flights that recompile both arms — is a full-tier memo hit, and so is any
// config that differs only in bits this job never reads.
//
// Both the entry and the memo cache failures too: a config that fails to
// compile keeps failing identically from cache (the span fix-point and flip
// evaluation depend on observing those failures deterministically).
//
// Invalidation is by fingerprint: statistics drift or script edits change
// the key, and stale entries age out of the sharded LRU. An aged-out entry
// takes its plan and memo with it, but not on the compile that evicts it:
// the LRU hands the entry back, and the process-wide Reclaimer
// (reclaimer.h) frees it on a background thread. A caller still holding a result keeps
// it alive through its shared_ptr. Entries are immutable
// shared_ptr<const ...>, so results are byte-identical to a fresh compile
// (tests compare against one) at any thread count and capacity. The cache
// is sized by CompileCacheOptions alone; no environment knob reaches it.
#ifndef QO_CACHE_COMPILATION_CACHE_H_
#define QO_CACHE_COMPILATION_CACHE_H_

#include <cstdint>
#include <memory>

#include "cache/sharded_lru.h"
#include "common/status.h"
#include "optimizer/cross_config_memo.h"
#include "scope/logical_plan.h"

namespace qo::cache {

/// Everything the config-independent front end reads.
struct FrontEndKey {
  uint64_t script_hash = 0;
  uint64_t catalog_fingerprint = 0;

  bool operator==(const FrontEndKey& o) const {
    return script_hash == o.script_hash &&
           catalog_fingerprint == o.catalog_fingerprint;
  }
};

struct FrontEndKeyHasher {
  size_t operator()(const FrontEndKey& k) const;
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

using FrontEndPtr = std::shared_ptr<const CachedFrontEnd>;

/// Thread-safe front-end cache. Owned by a ScopeEngine (keys do not cover
/// optimizer options; the engine folds its options fingerprint into the
/// catalog fingerprint, so sharing across engines stays sound).
using FrontEndCache =
    ShardedLruCache<FrontEndKey, FrontEndPtr, FrontEndKeyHasher>;

struct CompileCacheOptions {
  /// Front-end entry bound (one entry serves every config of a job).
  size_t capacity = 4096;
  /// Shard count; the cache clamps it to [1, capacity].
  int num_shards = 16;
};

}  // namespace qo::cache

#endif  // QO_CACHE_COMPILATION_CACHE_H_
