// Figure 3: A/A latency variance over 10 runs per job. Paper: more than 90%
// of jobs exceed the 5% variance line, a few exceed 100%.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result =
      qo::experiments::RunAAVariance(env, qo::experiments::Metric::kLatency);
  std::printf("== Figure 3: A/A variance of latency (10 runs/job) ==\n");
  qo::benchutil::PrintScatterDeciles("normalized execution time",
                                     "latency CV", result.time_vs_cv);
  double max_cv = 0;
  for (auto& [t, cv] : result.time_vs_cv) max_cv = std::max(max_cv, cv);
  std::printf("jobs above 5%% variance: %.1f%%  (paper: >90%%)\n",
              100.0 * result.fraction_above_5pct);
  std::printf("max observed variance: %.0f%%  (paper: some jobs >100%%)\n",
              100.0 * max_cv);
  return 0;
}
