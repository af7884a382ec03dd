// Per-job cross-config optimizer memo (the tentpole of the interned-symbol
// refactor).
//
// The steering pipeline compiles every job under many rule configurations:
// the span fix-point probes batches of flips, the recommender evaluates one
// DefaultWithFlip per span bit, multi-flip search and flighting recompile
// more. Most of those configs differ only in rule bits the optimizer never
// reads for this particular job — a join-rule flip on a join-free job, or a
// flip of one of the ~220 placeholder rule ids that are not wired to any
// behavior. A cache keyed on the *full* 256-bit config would miss on each
// such flip and recompile.
//
// This memo keys on the compile's *footprint* instead: the exact set of rule
// bits the optimizer consulted (RuleConfig::TrackConsulted) and their values.
// A compilation is a pure function of (front-end plan, catalog, optimizer
// options, values of consulted bits) — the first three are fixed by the
// front-end cache entry this memo hangs off — so any config that agrees on
// every consulted bit provably produces byte-identical output. A config
// always agrees with its own footprint, so this memo is also the engine's
// only (job, config) result cache: an exact repeat is a full-tier hit.
//
// Two tiers:
//  - Full tier: footprint of the whole compile -> CompilationOutput (or the
//    deterministic compile error). Serves flips of rules this job never
//    consults.
//  - Normalized tier: footprint of validate+normalize only -> the normalized
//    plan, kept as the memo seed the cost-based search starts from (each
//    group's base expression, shared schema and derived statistics; the
//    normalized LogicalPlan is not kept). Normalization consults only the
//    rewrite-rule bits, so flips of exploration/implementation rules share
//    the seed read-only and rerun just the search, without rebuilding a
//    group or re-deriving a statistic.
//
// Entries are compared by linear scan under a mutex: per job the number of
// distinct footprints is tiny (one per consulted-bit combination actually
// exercised), and a scan over <= ~100 32-byte masks is cheaper than
// maintaining an index. Capacity is bounded by dropping new inserts when
// full; since every entry is provably equal to a fresh compile, eviction
// policy can change hit *counts* but never output bytes. A dropped full
// entry means its configs re-run the optimizer on every compile, and a
// dropped normalized entry that they re-normalize, so drops are counted
// ("optimizer.memo.full_dropped", "optimizer.memo.norm_dropped"). Tests
// check every memoized compile against a direct optimizer run.
#ifndef QO_OPTIMIZER_CROSS_CONFIG_MEMO_H_
#define QO_OPTIMIZER_CROSS_CONFIG_MEMO_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "optimizer/optimizer.h"

namespace qo::opt {

/// Thread-safe two-tier footprint memo. One instance per cached front-end
/// entry (same lifetime as the logical plan it describes).
class CrossConfigMemo {
 public:
  // Bounds sized for one job's sweep: the span fix-point plus a 256-flip
  // recommender pass produce well under 96 distinct full footprints, and
  // normalization reads ~10 bits so its footprint count stays single-digit.
  static constexpr size_t kMaxFullEntries = 96;
  static constexpr size_t kMaxNormEntries = 16;

  /// Full-tier probe: if some stored compile's footprint agrees with
  /// `config`, stores its result into `status` / `output` and returns true.
  /// The output is shared, not copied — entries hold the same immutable
  /// CompilationOutput every CompileShared caller receives.
  bool FindFull(const BitVector256& config, Status* status,
                std::shared_ptr<const CompilationOutput>* output) const;

  /// Normalized-tier probe: if some stored normalized plan's
  /// validate+normalize footprint agrees with `config`, stores it into
  /// `plan` (sharing its seed) and returns true. On a hit, `norm_consulted`
  /// (if non-null) receives the matched entry's footprint — callers union
  /// it with the post-search footprint to insert a full-tier entry for the
  /// finished compile.
  bool FindNorm(const BitVector256& config, NormalizedPlan* plan,
                BitVector256* norm_consulted) const;

  /// Records a full compile: `consulted` is every bit the compile read,
  /// `config` the configuration it ran under, `output` the shared immutable
  /// result (null for a failed compile — the error replays from `status`).
  /// No-op when a matching footprint is already stored or when at capacity
  /// (counted as "optimizer.memo.full_dropped").
  /// Refcount-only: inserting never deep-copies the output.
  void InsertFull(const BitVector256& consulted, const BitVector256& config,
                  const Status& status,
                  std::shared_ptr<const CompilationOutput> output);

  /// Records a validate+normalize result the same way: a no-op when a
  /// matching footprint is already stored or when at capacity (counted as
  /// "optimizer.memo.norm_dropped"). Shares the plan's seed, never copies it.
  void InsertNorm(const BitVector256& consulted, const BitVector256& config,
                  NormalizedPlan plan);

 private:
  struct FullEntry {
    BitVector256 consulted;
    BitVector256 values;  ///< config bits at the consulted positions
    Status status;
    /// Shared with every caller served from this entry; null when
    /// !status.ok().
    std::shared_ptr<const CompilationOutput> output;
  };
  struct NormEntry {
    BitVector256 consulted;
    BitVector256 values;
    NormalizedPlan plan;
  };

  mutable std::mutex mu_;
  std::vector<FullEntry> full_;
  std::vector<NormEntry> norm_;
};

}  // namespace qo::opt

#endif  // QO_OPTIMIZER_CROSS_CONFIG_MEMO_H_
