// Figure 9: predicted vs actual PNhours delta for the validation model,
// trained on two weeks of flighting data and tested on a held-out day.
// Paper: of the jobs predicted below -0.1, 85% land below -0.1 and 91%
// below 0.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunValidationAccuracy(env);
  std::printf("== Figure 9: validation model accuracy ==\n");
  qo::benchutil::PrintScatterDeciles("predicted PNhours delta",
                                     "actual PNhours delta",
                                     result.predicted_vs_actual);
  std::printf("test jobs: %zu, accepted (predicted < -0.1): %zu\n",
              result.test_jobs, result.accepted);
  std::printf("accepted with actual < -0.1: %.1f%%  (paper: 85%%)\n",
              100.0 * result.frac_actual_below_threshold);
  std::printf("accepted with actual < 0:    %.1f%%  (paper: 91%%)\n",
              100.0 * result.frac_actual_below_zero);
  std::printf("temporal-generalization r2 on the held-out day: %.3f\n",
              result.model_r2);
  return 0;
}
