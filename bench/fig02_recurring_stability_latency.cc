// Figure 2: recurring job stability — latency improvements found in week0
// cannot always be repeated in week1. Paper: more than 40% of week0-improving
// jobs regress when re-run one week apart.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunRecurringStability(
      env, qo::experiments::Metric::kLatency);
  std::printf("== Figure 2: recurring job stability (latency) ==\n");
  qo::benchutil::PrintScatterDeciles("week0 latency delta",
                                     "week1 latency delta",
                                     result.week0_week1);
  std::printf(
      "week0-improving jobs that regress in week1: %.1f%%  (paper: >40%%)\n",
      100.0 * result.regress_fraction);
  return 0;
}
