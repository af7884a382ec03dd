// Regression guard: demonstrates why estimated cost alone is not a safe
// deployment signal (paper Sec. 5.2) and how the flighting + validation
// model catches regressions before they reach production (Secs. 4.3, 5.3).
//
//   ./build/examples/regression_guard
#include <cstdio>

#include "core/feature_gen.h"
#include "core/recommend.h"
#include "core/validation.h"
#include "experiments/experiments.h"
#include "flighting/flighting.h"

int main() {
  using namespace qo;  // NOLINT

  experiments::ExperimentEnv env(
      {.num_templates = 50, .jobs_per_day = 90, .seed = 99});
  engine::ScopeEngine const& engine = env.engine();
  flight::FlightingService flighting(&engine, {.seed = 5});
  bandit::PersonalizerService personalizer({.seed = 3});
  advisor::Recommender recommender(&engine, &personalizer, {});

  // Gather flighting telemetry for a few days and train the validation
  // model: PNhours delta ~ (DataRead delta, DataWritten delta).
  std::vector<advisor::ValidationSample> samples;
  advisor::ValidationModel model({.accept_threshold = -0.10,
                                  .min_training_samples = 20});
  Rng rng(17);
  auto process_day = [&](int day, bool train) {
    auto features = advisor::GenerateFeatures(
        engine, env.BuildDayView(day), nullptr, nullptr,
        advisor::JobFilter::kRecurringOnly);
    int accepted = 0, rejected = 0, would_regress = 0, caught = 0;
    for (const auto& f : features) {
      for (int bit : f.span.Positions()) {
        auto rec = recommender.EvaluateFlip(f, bit);
        if (rec.outcome != advisor::RecompileOutcome::kLowerCost) continue;
        flight::FlightRequest request;
        request.job = rec.instance;
        request.candidate = rec.ToConfig();
        auto flight = flighting.FlightOne(request, rng.Next());
        if (!flight.ok() ||
            flight->outcome != flight::FlightOutcome::kSuccess) {
          continue;
        }
        // The "future occurrence" outcome used to score the decision.
        auto future = flighting.FlightOne(request, rng.Next());
        if (!future.ok() ||
            future->outcome != flight::FlightOutcome::kSuccess) {
          continue;
        }
        if (train) {
          samples.push_back(
              advisor::MakeSample(*flight, future->pn_hours_delta));
          continue;
        }
        bool accept = model.Accept(*flight);
        bool regresses = future->pn_hours_delta > 0.0;
        accepted += accept;
        rejected += !accept;
        would_regress += regresses;
        caught += (!accept && regresses);
      }
    }
    if (!train) {
      std::printf("day %d: %d est-cost-improving flips flighted\n", day,
                  accepted + rejected);
      std::printf("  without validation, deployed: %d (of which %d regress "
                  "PNhours!)\n",
                  accepted + rejected, would_regress);
      std::printf("  with validation, deployed: %d; regressions caught: "
                  "%d/%d\n",
                  accepted, caught, would_regress);
    }
  };

  for (int day = 0; day < 6; ++day) process_day(day, /*train=*/true);
  auto status = model.Train(samples);
  if (!status.ok()) {
    std::printf("validation model training failed: %s\n",
                status.ToString().c_str());
    return 1;
  }
  std::printf("validation model trained on %zu flight samples\n",
              samples.size());
  std::printf("  pn_delta = %.3f*read_delta %+.3f*written_delta %+.4f\n\n",
              model.regression().weights()[0],
              model.regression().weights()[1],
              model.regression().intercept());
  process_day(6, /*train=*/false);
  return 0;
}
