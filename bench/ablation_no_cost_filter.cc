// Sec. 5.2 ablation: disabling the estimated-cost filters (random flips,
// no pruning of cost-regressing plans) floods the flighting service. Paper:
// without the filters the pipeline could not finish flighting in 3 days.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunCostFilterAblation(env);
  std::printf("== Ablation: flighting without estimated-cost filters ==\n");
  std::printf("%-32s %12s %12s\n", "", "with filter", "no filter");
  std::printf("%-32s %12zu %12zu\n", "flight requests",
              result.flights_requested_with_filter,
              result.flights_requested_without_filter);
  std::printf("%-32s %12.1f %12.1f\n", "machine-hours consumed",
              result.budget_hours_with_filter,
              result.budget_hours_without_filter);
  std::printf("%-32s %12zu %12zu\n", "flights not finished (timeout)",
              result.timeouts_with_filter, result.timeouts_without_filter);
  std::printf("(paper: without cost filters, flighting that normally takes "
              "half a day did not finish in 3 days)\n");
  return 0;
}
