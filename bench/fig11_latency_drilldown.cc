// Figure 11: per-job latency delta for the hint-matched jobs, sorted.
// Paper: ~80% improve (best -90%); worst regression about +45% — larger than
// PNhours because the pipeline tunes for PNhours.
#include <cstdio>

#include "bench_util.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunAggregateImpact(env);
  std::printf("== Figure 11: latency delta drill-down ==\n");
  qo::benchutil::PrintDeltaSeries("latency", result.latency_deltas);
  std::printf("(paper: ~80%% improve, best ~-90%%, worst ~+45%%)\n");
  return 0;
}
