// Figure 7: DataRead delta vs PNhours delta with the paper's polynomial
// trend line. Paper: reading less data in the A/B run predicts a PNhours
// reduction.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunIoVsPn(
      env, qo::experiments::IoMetric::kDataRead);
  std::printf("== Figure 7: DataRead delta vs PNhours delta ==\n");
  qo::benchutil::PrintScatterDeciles("DataRead delta", "PNhours delta",
                                     result.io_vs_pn);
  std::printf("jobs: %zu\n", result.io_vs_pn.size());
  std::printf("trend: pn_delta = %.3f * read_delta %+.4f  (r2=%.3f)\n",
              result.trend.slope, result.trend.intercept, result.trend.r2);
  std::printf("correlation: %.3f  (paper: clear positive trend)\n",
              result.correlation);
  return 0;
}
