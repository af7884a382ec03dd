// Sec. 3.2: the action space must stay tractable — "Empirically, S is on
// average 10 but with a long tail distribution, so having actions scale
// linearly with S ensures tractability". This bench reports the span-size
// distribution of the simulated workload plus the share of jobs with
// non-empty spans (~66% in the paper, Sec. 5.6).
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "core/span.h"
#include "experiments/experiments.h"

int main() {
  using namespace qo;  // NOLINT
  experiments::ExperimentEnv env(benchutil::HarnessConfigFromEnv());
  std::vector<double> sizes;
  size_t empty = 0, total = 0, failures = 0;
  RunningStats iterations;
  for (int day = 0; day < 3; ++day) {
    for (const auto& job : env.driver().DayJobs(day)) {
      auto span = advisor::ComputeJobSpan(env.engine(), job);
      ++total;
      if (!span.ok()) {
        ++failures;
        continue;
      }
      iterations.Add(span->iterations);
      if (span->span.None()) {
        ++empty;
      } else {
        sizes.push_back(span->span.Count());
      }
    }
  }
  std::printf("== Job span distribution ==\n");
  std::printf("jobs: %zu, empty span: %zu (%.0f%%), default-compile "
              "failures: %zu\n",
              total, empty, 100.0 * empty / total, failures);
  std::printf("non-empty spans: %zu of %zu (%.0f%%; paper: ~66%%)\n",
              sizes.size(), total, 100.0 * sizes.size() / total);
  std::printf("span size: mean=%.1f p50=%.0f p90=%.0f p99=%.0f max=%.0f "
              "(paper: mean ~10, long tail)\n",
              Mean(sizes), Percentile(sizes, 50), Percentile(sizes, 90),
              Percentile(sizes, 99), Percentile(sizes, 100));
  std::printf("fix-point iterations per span: mean=%.1f max=%.0f\n",
              iterations.mean(), iterations.max());
  // Action-set size is 1 + S (Sec. 3.2).
  std::printf("average action-set size (1 + S): %.1f\n", 1.0 + Mean(sizes));
  return 0;
}
