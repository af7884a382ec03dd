// Figure 12: per-job vertices delta for the hint-matched jobs, sorted.
// Paper: only two jobs regress (~+10%); best improves by more than 60%.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunAggregateImpact(env);
  std::printf("== Figure 12: vertices delta drill-down ==\n");
  qo::benchutil::PrintDeltaSeries("vertices", result.vertices_deltas);
  std::printf("(paper: worst ~+10%% on two jobs, best better than -60%%)\n");
  return 0;
}
