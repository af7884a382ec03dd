// Figure 4: recurring job stability for PNhours. Paper: relying on week0
// PNhours savings leads to >40% regressions in week1.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunRecurringStability(
      env, qo::experiments::Metric::kPnHours);
  std::printf("== Figure 4: recurring job stability (PNhours) ==\n");
  qo::benchutil::PrintScatterDeciles("week0 PNhours delta",
                                     "week1 PNhours delta",
                                     result.week0_week1);
  std::printf(
      "week0-improving jobs that regress in week1: %.1f%%  (paper: >40%%)\n",
      100.0 * result.regress_fraction);
  return 0;
}
