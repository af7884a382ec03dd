// What-if explorer: for one job, compute its span and evaluate *every*
// single rule flip — the offline exploration QO-Advisor runs at scale. This
// is the tool a SCOPE engineer would use to debug a hint ("which rule moved
// the needle, and why?" — paper Sec. 6, "Simplicity first").
//
//   ./build/examples/whatif_explorer [template_seed]
#include <cstdio>
#include <cstdlib>

#include "core/feature_gen.h"
#include "core/recommend.h"
#include "core/span.h"
#include "engine/engine.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace qo;  // NOLINT
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 12;

  // Pick the first non-trivial recurring job of the day.
  workload::WorkloadDriver driver(
      {.num_templates = 40, .jobs_per_day = 60, .seed = seed});
  engine::ScopeEngine engine;

  for (const auto& job : driver.DayJobs(0)) {
    auto span = advisor::ComputeJobSpan(engine, job);
    if (!span.ok() || span->span.Count() < 4) continue;

    std::printf("job: %s (template %s)\n", job.job_id.c_str(),
                job.template_name.c_str());
    std::printf("script:\n%s\n", job.script.c_str());
    std::printf("default est cost: %.3f, span size: %d (%d iterations)\n\n",
                span->default_compilation->est_cost, span->span.Count(),
                span->iterations);

    // Evaluate every flip in the span.
    bandit::PersonalizerService personalizer({.seed = 1});
    advisor::Recommender recommender(&engine, &personalizer, {});
    advisor::JobFeatures features;
    features.row.job_id = job.job_id;
    features.row.normalized_job_name = job.template_name;
    features.row.instance = job;
    features.span = span->span;
    features.default_compilation = span->default_compilation;

    std::printf("%-34s %-14s %12s %10s\n", "rule", "category", "est cost",
                "delta");
    for (int bit : span->span.Positions()) {
      auto rec = recommender.EvaluateFlip(features, bit);
      const auto& info = opt::RuleRegistry::Get().info(bit);
      if (rec.outcome == advisor::RecompileOutcome::kRecompileFailure) {
        std::printf("%-34s %-14s %12s %10s\n", info.name.c_str(),
                    opt::RuleCategoryToString(info.category), "-",
                    "FAILS");
        continue;
      }
      double delta = rec.est_cost_new / rec.est_cost_default - 1.0;
      std::printf("%-34s %-14s %12.3f %+9.1f%%\n", info.name.c_str(),
                  opt::RuleCategoryToString(info.category), rec.est_cost_new,
                  100.0 * delta);
    }

    // Show the best flip's plans side by side.
    auto best = recommender.EvaluateFlip(features, -1);
    double best_delta = 0.0;
    for (int bit : span->span.Positions()) {
      auto rec = recommender.EvaluateFlip(features, bit);
      if (rec.outcome != advisor::RecompileOutcome::kLowerCost) continue;
      double delta = rec.est_cost_new / rec.est_cost_default - 1.0;
      if (delta < best_delta) {
        best_delta = delta;
        best = rec;
      }
    }
    if (best.rule_id >= 0) {
      std::printf("\nbest flip: %s (%+.1f%% est cost)\n",
                  opt::RuleRegistry::Get().name(best.rule_id).c_str(),
                  100.0 * best_delta);
      auto compiled = engine.CompileShared(job, best.ToConfig());
      std::printf("\n--- default plan ---\n%s\n--- steered plan ---\n%s",
                  span->default_compilation->plan.ToString().c_str(),
                  compiled.ok() ? (*compiled)->plan.ToString().c_str() : "?");
    } else {
      std::printf("\nno estimated-cost-improving flip for this job\n");
    }
    return 0;
  }
  std::printf("no job with a span of >=4 rules today; try another seed\n");
  return 0;
}
