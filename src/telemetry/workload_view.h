// The denormalized workload view: one row per executed job, aggregating
// compile-time and runtime information (paper Sec. 4 and Table 1).
//
// SCOPE jobs are DAGs with one tree per output; features are computed per
// tree or per job and aggregated to job level through a synthetic super-root
// (Sec. 4.1). Aggregation functions follow Table 1: min for job-level
// features, sum for estimated cardinalities / bytes read / row counts, avg
// for average row length.
#ifndef QO_TELEMETRY_WORKLOAD_VIEW_H_
#define QO_TELEMETRY_WORKLOAD_VIEW_H_

#include <string>
#include <vector>

#include "common/bitvector.h"
#include "exec/metrics.h"
#include "optimizer/physical_plan.h"
#include "workload/template_gen.h"

namespace qo::telemetry {

/// One row of the denormalized view (all Table 1 features, job level).
struct WorkloadViewRow {
  // Identity.
  std::string job_id;
  std::string normalized_job_name;  ///< template name (J, min)
  int template_id = 0;
  int day = 0;
  bool recurring = true;

  // Optimizer features.
  BitVector256 rule_signature;        ///< (J, min)
  double est_cost = 0.0;              ///< (J, min)
  double est_cardinalities = 0.0;     ///< (Q, sum) summed over query trees
  double avg_row_length = 0.0;        ///< (Q, avg)
  double row_count = 0.0;             ///< (Q, sum) actual rows
  // Runtime statistics.
  double latency_sec = 0.0;           ///< (J, min)
  int total_vertices = 0;             ///< (J, min)
  double bytes_read = 0.0;            ///< (Q, sum)
  double bytes_written = 0.0;
  double max_memory = 0.0;            ///< (J, min)
  double avg_memory = 0.0;            ///< (J, min)
  double pn_hours = 0.0;              ///< (J, min)

  /// Snapshot of the instance so the offline pipeline can recompile the job
  /// (stands in for the job metadata the real view carries).
  workload::JobInstance instance;
};

/// Builds a view row from a finished run, performing the per-tree -> job
/// aggregation of Table 1. The row keeps `instance`: move it in.
WorkloadViewRow MakeViewRow(workload::JobInstance instance,
                            const opt::CompilationOutput& compilation,
                            const exec::JobMetrics& metrics);

/// A day's worth of view rows (what the daily QO-Advisor pipeline ingests).
struct WorkloadView {
  int day = 0;
  std::vector<WorkloadViewRow> rows;
};

}  // namespace qo::telemetry

#endif  // QO_TELEMETRY_WORKLOAD_VIEW_H_
