// Sec. 8 future work: single rule flips limit how many plans can be
// improved. This ablation compares the estimated-cost improvements of the
// deployed 1-flip policy against greedy multi-flip episodes (horizon 2/3) —
// the short-horizon episodic approach the paper proposes to explore next.
#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "core/multi_flip.h"
#include "core/span.h"
#include "experiments/experiments.h"

int main() {
  using namespace qo;  // NOLINT
  experiments::ExperimentEnv env(benchutil::HarnessConfigFromEnv());
  struct Arm {
    int horizon = 0;
    size_t improved = 0;
    std::vector<double> gains = {};  // est-cost reduction fraction
  };
  Arm arms[] = {{1}, {2}, {3}};
  size_t jobs = 0;
  for (const auto& job : env.driver().DayJobs(0)) {
    auto span = advisor::ComputeJobSpan(env.engine(), job);
    if (!span.ok() || span->span.None()) continue;
    ++jobs;
    for (Arm& arm : arms) {
      auto result = advisor::GreedyMultiFlip(
          env.engine(), job, span->span, arm.horizon,
          /*min_relative_gain=*/1e-3, span->default_compilation);
      if (!result.ok()) continue;
      if (!result->flips.empty()) {
        ++arm.improved;
        arm.gains.push_back(1.0 -
                            result->est_cost_final / result->est_cost_default);
      }
    }
  }
  std::printf("== Future work ablation: single vs greedy multi flips ==\n");
  std::printf("jobs with non-empty span: %zu\n\n", jobs);
  std::printf("%8s %14s %18s %16s\n", "horizon", "jobs improved",
              "mean est-cost gain", "max est-cost gain");
  for (const Arm& arm : arms) {
    double max_gain = 0;
    for (double g : arm.gains) max_gain = std::max(max_gain, g);
    std::printf("%8d %14zu %17.1f%% %15.1f%%\n", arm.horizon, arm.improved,
                100.0 * Mean(arm.gains), 100.0 * max_gain);
  }
  std::printf("\n(paper Sec. 8: \"QO-Advisor currently suggests only one "
              "single rule flip per job ... it limits how many plans can be "
              "improved\")\n");
  return 0;
}
