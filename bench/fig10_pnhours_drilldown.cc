// Figure 10: per-job PNhours delta for the hint-matched jobs, sorted.
// Paper: >80% of jobs improve; best about -50%, worst regression +15%.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunAggregateImpact(env);
  std::printf("== Figure 10: PNhours delta drill-down ==\n");
  qo::benchutil::PrintDeltaSeries("PNhours", result.pn_deltas);
  std::printf("(paper: >80%% improve, best ~-50%%, worst ~+15%%)\n");
  return 0;
}
