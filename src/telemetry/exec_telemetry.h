// Telemetry counters for the execution simulator's prepared profiles
// (src/exec/ + the engine's profile slot on shared compilations).
//
// As with the compile-cache counters, this header defines the merged
// snapshot shape the rest of the system consumes — pipeline reports, benches
// and tests read these instead of poking at simulator internals.
#ifndef QO_TELEMETRY_EXEC_TELEMETRY_H_
#define QO_TELEMETRY_EXEC_TELEMETRY_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace qo::telemetry {

/// Snapshot of prepared-execution activity: how many execution profiles were
/// prepared, how many runs they served, and how often the engine's
/// per-compilation profile slot was reused vs filled.
struct ExecProfileTelemetry {
  uint64_t prepares = 0;        ///< full Prepare() computations
  uint64_t prepared_runs = 0;   ///< runs served from a profile
  uint64_t profile_hits = 0;    ///< engine slot lookups served by a profile
  uint64_t profile_misses = 0;  ///< engine slot lookups that had to prepare

  uint64_t slot_lookups() const { return profile_hits + profile_misses; }
  /// Fraction of slot lookups that reused an already-prepared profile.
  double reuse_rate() const {
    uint64_t n = slot_lookups();
    return n == 0 ? 0.0
                  : static_cast<double>(profile_hits) / static_cast<double>(n);
  }

  /// Human-readable multi-line dump for benches and debugging.
  std::string ToString() const;
};

/// Exports the snapshot as registry series ("exec.prepares",
/// "exec.prepared_runs", "exec.reuse_rate", ...).
void ExportSeries(const ExecProfileTelemetry& t, obs::SeriesSink& sink);

}  // namespace qo::telemetry

#endif  // QO_TELEMETRY_EXEC_TELEMETRY_H_
