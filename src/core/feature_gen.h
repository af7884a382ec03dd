// Feature Generation: the first task of the daily QO-Advisor pipeline
// (paper Sec. 4.1). Consumes the denormalized workload view, computes job
// spans, and emits aggregated job-level features for the Recommendation
// task. Jobs with an empty span are dropped — no flip can change their plan.
#ifndef QO_CORE_FEATURE_GEN_H_
#define QO_CORE_FEATURE_GEN_H_

#include <memory>
#include <vector>

#include "bandit/features.h"
#include "core/span.h"
#include "telemetry/workload_view.h"

namespace qo::runtime {
class ParallelRuntime;
}  // namespace qo::runtime

namespace qo::advisor {

/// Per-job features handed to the Recommendation task.
struct JobFeatures {
  telemetry::WorkloadViewRow row;
  BitVector256 span;
  /// Shared with the engine's compilation cache (immutable).
  std::shared_ptr<const opt::CompilationOutput> default_compilation;

  /// The bandit context built from the span and Table 1 features.
  bandit::JobContext ToContext() const {
    bandit::JobContext ctx;
    ctx.span = span;
    ctx.row_count = row.row_count;
    ctx.est_cost = row.est_cost;
    ctx.bytes_read = row.bytes_read;
    ctx.total_vertices = row.total_vertices;
    return ctx;
  }
};

struct FeatureGenStats {
  size_t input_jobs = 0;
  size_t empty_span_dropped = 0;
  size_t compile_failures = 0;
  size_t emitted = 0;
};

/// Which of the view's rows feature generation considers.
enum class JobFilter {
  kAll,
  /// Recurring jobs only: the pipeline's setting (Sec. 2.1).
  kRecurringOnly,
};

/// Runs feature generation over the day's view rows that pass `filter`
/// (`stats->input_jobs` counts those rows). With a runtime attached, the
/// span computations (the pipeline's hottest recompilation loop) fan out
/// across the pool sharded by template id; results commit in row order, so
/// output and stats are byte-identical to the serial path.
std::vector<JobFeatures> GenerateFeatures(
    const engine::ScopeEngine& engine, const telemetry::WorkloadView& view,
    FeatureGenStats* stats = nullptr,
    runtime::ParallelRuntime* runtime = nullptr,
    JobFilter filter = JobFilter::kAll);

}  // namespace qo::advisor

#endif  // QO_CORE_FEATURE_GEN_H_
