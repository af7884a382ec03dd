// Telemetry counters for the compilation caches (src/cache/).
//
// The caches themselves keep per-shard counters under their shard locks;
// this header defines the merged snapshot shape the rest of the system
// consumes — pipeline reports, benches and tests read these instead of
// poking at cache internals.
#ifndef QO_TELEMETRY_CACHE_TELEMETRY_H_
#define QO_TELEMETRY_CACHE_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace qo::telemetry {

/// Counter snapshot for one cache level, merged across shards.
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  size_t entries = 0;   ///< live entries at snapshot time
  size_t capacity = 0;  ///< configured total bound (always enforced; each
                        ///< shard holds at least one entry)

  uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// Snapshot of the two-level compilation cache: the config-independent
/// front-end memo (script -> logical plan) and the full (job, config)
/// compilation cache.
struct CompileCacheTelemetry {
  CacheCounters front_end;
  CacheCounters compilations;

  /// Human-readable multi-line dump for benches and debugging.
  std::string ToString() const;
};

/// Exports the snapshot as registry series ("cache.front_end.hits",
/// "cache.compilations.hit_rate", ...). The engine registers this as a
/// registry collector, so every MetricsSnapshot / run report carries the
/// cache surface.
void ExportSeries(const CompileCacheTelemetry& t, obs::SeriesSink& sink);

}  // namespace qo::telemetry

#endif  // QO_TELEMETRY_CACHE_TELEMETRY_H_
