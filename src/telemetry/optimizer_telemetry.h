// Telemetry counters for the optimizer hot path: the per-job cross-config
// memo (src/optimizer/cross_config_memo.h) and the global symbol table
// (src/common/symbol_table.h).
//
// Mirrors the cache/exec telemetry shape: the engine keeps relaxed atomic
// counters and exposes a merged snapshot here for pipeline reports, benches
// and tests.
#ifndef QO_TELEMETRY_OPTIMIZER_TELEMETRY_H_
#define QO_TELEMETRY_OPTIMIZER_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace qo::telemetry {

/// Snapshot of one engine's cross-config memo counters plus the process-wide
/// interned-symbol count.
struct OptimizerTelemetry {
  /// Whole compilations served from a matching footprint.
  uint64_t memo_full_hits = 0;
  /// Compilations that reused a stored normalized plan and reran only the
  /// cost-based search.
  uint64_t memo_norm_hits = 0;
  /// Compilations that ran the full pipeline.
  uint64_t memo_misses = 0;
  /// Strings interned in the global symbol table at snapshot time.
  size_t interned_symbols = 0;

  uint64_t memo_lookups() const {
    return memo_full_hits + memo_norm_hits + memo_misses;
  }
  /// Fraction of optimizer invocations that reused prior work (either tier).
  double memo_hit_rate() const {
    uint64_t n = memo_lookups();
    return n == 0 ? 0.0
                  : static_cast<double>(memo_full_hits + memo_norm_hits) /
                        static_cast<double>(n);
  }

  /// Human-readable multi-line dump for benches and debugging.
  std::string ToString() const;
};

/// Exports the snapshot as registry series ("optimizer.memo.full_hits",
/// ..., "optimizer.symbols").
void ExportSeries(const OptimizerTelemetry& t, obs::SeriesSink& sink);

}  // namespace qo::telemetry

#endif  // QO_TELEMETRY_OPTIMIZER_TELEMETRY_H_
