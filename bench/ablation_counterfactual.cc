// Sec. 6 ("Regressions" / "Do not reinvent the wheel"): live experimentation
// is expensive, so QO-Advisor relies on counter-factual evaluation over the
// logged exploration data to tune the policy offline. This bench trains the
// bandit from the pipeline's uniform logging arm and reports the IPS
// estimate of the learned greedy policy against the logged baseline —
// without executing a single extra job.
#include <cstdio>

#include "bench_util.h"
#include "core/feature_gen.h"
#include "core/recommend.h"
#include "experiments/experiments.h"

int main() {
  using namespace qo;  // NOLINT
  experiments::ExperimentEnv env(benchutil::HarnessConfigFromEnv());
  bandit::PersonalizerService personalizer(
      {.epsilon = 0.1, .seed = 2022, .retrain_interval = 256});
  advisor::RecommenderConfig config;
  config.uniform_probes_per_job = 3;
  advisor::Recommender recommender(&env.engine(), &personalizer, config);

  std::printf("== Counterfactual (IPS) evaluation of the learned policy ==\n");
  std::printf("%4s %8s %16s %18s\n", "day", "events", "logged avg reward",
              "policy IPS estimate");
  for (int day = 0; day < 8; ++day) {
    auto features = advisor::GenerateFeatures(
        env.engine(), env.BuildDayView(day), nullptr, nullptr,
        advisor::JobFilter::kRecurringOnly);
    recommender.RecommendDay(features, day);
    personalizer.Retrain();
    auto eval = personalizer.EvaluateOffline();
    if (!eval.ok()) continue;
    std::printf("%4d %8zu %16.4f %18.4f\n", day, eval->events,
                eval->logged_average_reward, eval->policy_ips_estimate);
  }
  auto final_eval = personalizer.EvaluateOffline();
  if (final_eval.ok()) {
    std::printf(
        "\nlearned policy vs uniform logging baseline: %+.1f%% reward "
        "(reward = clipped default/new estimated-cost ratio; 1.0 = no-op)\n",
        100.0 * (final_eval->policy_ips_estimate /
                     final_eval->logged_average_reward -
                 1.0));
  }
  std::printf("(paper: counter-factual evaluation over past telemetry tunes "
              "the model without expensive live experiments)\n");
  return 0;
}
