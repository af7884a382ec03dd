// Figure 8: DataWritten delta vs PNhours delta with the polynomial trend
// line. Paper: writing less data also predicts PNhours reduction (weaker
// than DataRead but the same direction).
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunIoVsPn(
      env, qo::experiments::IoMetric::kDataWritten);
  std::printf("== Figure 8: DataWritten delta vs PNhours delta ==\n");
  qo::benchutil::PrintScatterDeciles("DataWritten delta", "PNhours delta",
                                     result.io_vs_pn);
  std::printf("jobs: %zu\n", result.io_vs_pn.size());
  std::printf("trend: pn_delta = %.3f * written_delta %+.4f  (r2=%.3f)\n",
              result.trend.slope, result.trend.intercept, result.trend.r2);
  std::printf("correlation: %.3f  (paper: positive trend)\n",
              result.correlation);
  return 0;
}
