// Table 2: aggregate pre-production impact of QO-Advisor on hint-matched
// jobs. Paper: PNhours -14.3%, latency -8.9%, vertices -52.8% over 70 jobs.
#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"
#include "experiments/experiments.h"

int main() {
  qo::experiments::ExperimentEnv env(qo::benchutil::HarnessConfigFromEnv());
  auto result = qo::experiments::RunAggregateImpact(env);
  std::cout << "== Table 2: aggregate pre-production results ==\n";
  std::cout << "active hints: " << result.active_hints
            << ", matched jobs: " << result.matched_jobs << "\n";
  qo::TablePrinter table({"Metric", "%Reduction (this repro)", "Paper"});
  table.AddRow({"PNhours", qo::TablePrinter::Pct(result.pn_hours_reduction),
                "-14.3%"});
  table.AddRow({"Latency", qo::TablePrinter::Pct(result.latency_reduction),
                "-8.9%"});
  table.AddRow({"Vertices", qo::TablePrinter::Pct(result.vertices_reduction),
                "-52.8%"});
  table.Print(std::cout);
  return 0;
}
