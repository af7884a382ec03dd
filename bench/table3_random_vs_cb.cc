// Table 3: uniform-random vs contextual-bandit rule flips. Paper: CB
// produces ~3x more lower-cost jobs, ~2x fewer higher-cost jobs, fewer
// recompile failures, and >100x lower total estimated cost.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunRandomVsCb(env);
  std::cout << "== Table 3: random vs contextual-bandit rule flips ==\n";
  std::printf("jobs with non-empty span: %zu of %zu (%.0f%%; paper: ~66%%)\n",
              result.jobs_with_span, result.jobs_total,
              100.0 * static_cast<double>(result.jobs_with_span) /
                  static_cast<double>(result.jobs_total));

  auto pct = [&](size_t v, const qo::experiments::FlipOutcomeCounts& c) {
    return qo::TablePrinter::Pct(
        static_cast<double>(v) / static_cast<double>(c.total()), 1);
  };
  qo::TablePrinter table({"Number of jobs", "Random", "Random %", "CB",
                          "CB %", "Paper (Random% / CB%)"});
  const auto& r = result.random;
  const auto& c = result.cb;
  table.AddRow({"Lower cost", std::to_string(r.lower_cost),
                pct(r.lower_cost, r), std::to_string(c.lower_cost),
                pct(c.lower_cost, c), "10.6% / 34.5%"});
  table.AddRow({"Equal cost", std::to_string(r.equal_cost),
                pct(r.equal_cost, r), std::to_string(c.equal_cost),
                pct(c.equal_cost, c), "35.4% / 32.1%"});
  table.AddRow({"Higher cost", std::to_string(r.higher_cost),
                pct(r.higher_cost, r), std::to_string(c.higher_cost),
                pct(c.higher_cost, c), "36.0% / 19.5%"});
  table.AddRow({"Recompile failures", std::to_string(r.recompile_failures),
                pct(r.recompile_failures, r),
                std::to_string(c.recompile_failures),
                pct(c.recompile_failures, c), "18.0% / 13.9%"});
  table.Print(std::cout);
  std::printf("total est cost: default=%.3e random=%.3e cb=%.3e\n",
              result.default_total_est_cost, result.random.total_est_cost,
              result.cb.total_est_cost);
  std::printf("random/cb cost ratio: %.1fx  (paper: >100x)\n",
              result.random.total_est_cost /
                  std::max(1e-9, result.cb.total_est_cost));
  return 0;
}
