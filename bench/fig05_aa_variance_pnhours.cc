// Figure 5: A/A PNhours variance. Paper: PNhours is markedly more stable
// than latency — fewer than 50% of jobs exceed the 5% variance line.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result =
      qo::experiments::RunAAVariance(env, qo::experiments::Metric::kPnHours);
  std::printf("== Figure 5: A/A variance of PNhours (10 runs/job) ==\n");
  qo::benchutil::PrintScatterDeciles("normalized execution time",
                                     "PNhours CV", result.time_vs_cv);
  std::printf("jobs above 5%% variance: %.1f%%  (paper: <50%%)\n",
              100.0 * result.fraction_above_5pct);
  return 0;
}
