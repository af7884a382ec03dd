// Figure 6: estimated-cost delta vs latency delta for rule flips with lower
// estimated costs, over ~5 days of jobs. Paper: no real correlation; over
// 40% of the jobs with large estimated-cost improvements regress in latency.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunCostVsLatency(env, /*days=*/5);
  std::printf("== Figure 6: estimated cost delta vs latency delta ==\n");
  qo::benchutil::PrintScatterDeciles("est cost delta", "latency delta",
                                     result.cost_vs_latency);
  std::printf("jobs: %zu\n", result.cost_vs_latency.size());
  std::printf("correlation(cost delta, latency delta): %.3f  "
              "(paper: no real correlation)\n",
              result.correlation);
  std::printf(
      "cost-improving jobs with latency regression: %.1f%%  (paper: >40%%)\n",
      100.0 * result.improved_cost_latency_regress_fraction);
  return 0;
}
