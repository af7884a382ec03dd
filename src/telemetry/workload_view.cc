#include "telemetry/workload_view.h"

#include <utility>

namespace qo::telemetry {

WorkloadViewRow MakeViewRow(workload::JobInstance instance,
                            const opt::CompilationOutput& compilation,
                            const exec::JobMetrics& metrics) {
  WorkloadViewRow row;
  row.job_id = instance.job_id;
  row.normalized_job_name = instance.template_name;
  row.template_id = instance.template_id;
  row.day = instance.day;
  row.recurring = instance.recurring;
  row.rule_signature = compilation.signature;
  row.est_cost = compilation.est_cost;

  // Per-tree features aggregated through the super-root (Table 1): sums over
  // all plan operators, average for row length.
  double width_sum = 0.0;
  for (const auto& node : compilation.plan.nodes) {
    row.est_cardinalities += node.est_rows;
    row.row_count += node.true_rows;
    width_sum += node.schema ? node.schema->RowWidthBytes() : 0.0;
  }
  if (!compilation.plan.nodes.empty()) {
    row.avg_row_length =
        width_sum / static_cast<double>(compilation.plan.nodes.size());
  }

  row.latency_sec = metrics.latency_sec;
  row.total_vertices = metrics.vertices;
  row.bytes_read = metrics.data_read_bytes;
  row.bytes_written = metrics.data_written_bytes;
  row.max_memory = metrics.max_memory_bytes;
  row.avg_memory = metrics.avg_memory_bytes;
  row.pn_hours = metrics.pn_hours;
  row.instance = std::move(instance);
  return row;
}

}  // namespace qo::telemetry
