// Shared helpers for the experiment bench binaries.
#ifndef QO_BENCH_BENCH_UTIL_H_
#define QO_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table_printer.h"
#include "experiments/experiments.h"
#include "service/advisor_options.h"

namespace qo::benchutil {

/// `config` with the harness knobs of one AdvisorOptions snapshot: its
/// thread count and its guard config (QO_GUARD + QO_FAULT_*), which the
/// harness's fault injector and RunAggregateImpact's pipeline share.
inline experiments::ExperimentConfig HarnessConfig(
    const service::AdvisorOptions& options,
    experiments::ExperimentConfig config = {}) {
  config.threads = options.runtime.num_threads;
  config.guard = options.guard;
  return config;
}

/// The default harness under the environment's knobs, so
/// `QO_THREADS=4 ./fig10_...` parallelizes and `QO_GUARD=1` arms the guard.
inline experiments::ExperimentConfig HarnessConfigFromEnv() {
  return HarnessConfig(service::AdvisorOptions::FromEnv());
}

/// Prints a scatter series as decile rows (x-sorted), the way the paper's
/// figures read left-to-right.
inline void PrintScatterDeciles(const std::string& x_name,
                                const std::string& y_name,
                                std::vector<std::pair<double, double>> points) {
  if (points.empty()) {
    std::cout << "(no points)\n";
    return;
  }
  std::sort(points.begin(), points.end());
  TablePrinter table({"decile", x_name + " (mid)", y_name + " (mean)",
                      y_name + " (min)", y_name + " (max)", "n"});
  size_t n = points.size();
  for (int d = 0; d < 10; ++d) {
    size_t lo = n * static_cast<size_t>(d) / 10;
    size_t hi = n * static_cast<size_t>(d + 1) / 10;
    if (hi <= lo) continue;
    RunningStats ys;
    RunningStats xs;
    for (size_t i = lo; i < hi; ++i) {
      xs.Add(points[i].first);
      ys.Add(points[i].second);
    }
    table.AddRow({std::to_string(d + 1), TablePrinter::Num(xs.mean(), 4),
                  TablePrinter::Num(ys.mean(), 4),
                  TablePrinter::Num(ys.min(), 4),
                  TablePrinter::Num(ys.max(), 4),
                  std::to_string(hi - lo)});
  }
  table.Print(std::cout);
}

/// Prints a sorted per-job delta series the way the drill-down figures
/// (10/11/12) do: jobs ordered by delta, with the key landmarks.
inline void PrintDeltaSeries(const std::string& metric,
                             const std::vector<double>& sorted_deltas) {
  if (sorted_deltas.empty()) {
    std::cout << "(no jobs)\n";
    return;
  }
  TablePrinter table({"job rank", metric + " delta"});
  size_t n = sorted_deltas.size();
  for (size_t i = 0; i < n; ++i) {
    // Print every job for small sets, else a 20-point sweep.
    if (n <= 24 || i % std::max<size_t>(1, n / 20) == 0 || i == n - 1) {
      table.AddRow({std::to_string(i + 1),
                    TablePrinter::Pct(sorted_deltas[i], 1)});
    }
  }
  table.Print(std::cout);
  size_t improved = 0;
  for (double d : sorted_deltas) {
    if (d < 0.0) ++improved;
  }
  std::printf("jobs=%zu improved=%.0f%% best=%.1f%% worst=%+.1f%%\n", n,
              100.0 * static_cast<double>(improved) / static_cast<double>(n),
              100.0 * sorted_deltas.front(), 100.0 * sorted_deltas.back());
}

}  // namespace qo::benchutil

#endif  // QO_BENCH_BENCH_UTIL_H_
