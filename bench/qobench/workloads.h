// The three qobench workloads. Each runs in its own process, drives the
// advisor stack only through its public API, and reports end-to-end metrics,
// per-layer metrics (traced runs) and an output digest.
#ifndef QOBENCH_WORKLOADS_H_
#define QOBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qobench {

struct Metric {
  std::string name;
  double value = 0.0;
};

struct WorkloadOptions {
  uint64_t seed = 2022;
  /// Work size relative to the full workload (1.0 = the sizes in README.md).
  double scale = 1.0;
  /// QO_METRICS=1 run: compute per-layer metrics from the registry.
  bool traced = false;
};

struct WorkloadResult {
  uint64_t attempted = 0;  ///< timed API calls issued
  uint64_t failed = 0;     ///< of those, calls that returned a non-OK Status
  /// Names the work size; the golden digest for seed 2022 is keyed by it.
  std::string size_key;
  /// Digest over every output of the timed run.
  uint64_t digest = 0;
  /// Replay check: the untimed 1-thread replay of the prefix matched.
  bool replay_ok = false;
  std::string replay_note;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  /// Human-readable detail lines (sample counts, counters).
  std::vector<std::string> notes;
};

WorkloadResult RunOffline(const WorkloadOptions& options);
WorkloadResult RunServeHot(const WorkloadOptions& options);
WorkloadResult RunServeMixed(const WorkloadOptions& options);

}  // namespace qobench

#endif  // QOBENCH_WORKLOADS_H_
