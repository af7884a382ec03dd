#include "core/feature_gen.h"

#include "runtime/runtime.h"

namespace qo::advisor {

std::vector<JobFeatures> GenerateFeatures(const engine::ScopeEngine& engine,
                                          const telemetry::WorkloadView& view,
                                          FeatureGenStats* stats,
                                          runtime::ParallelRuntime* runtime,
                                          JobFilter filter) {
  std::vector<const telemetry::WorkloadViewRow*> rows;
  rows.reserve(view.rows.size());
  for (const telemetry::WorkloadViewRow& row : view.rows) {
    if (filter == JobFilter::kAll || row.recurring) rows.push_back(&row);
  }
  FeatureGenStats local;
  local.input_jobs = rows.size();
  std::vector<JobFeatures> out;
  // The work function copies the row (a script and catalog) for jobs that
  // survive, so the commit only moves finished features. A default
  // JobFeatures (empty span) marks a dropped job.
  runtime::ForEachOrdered<Result<JobFeatures>>(
      runtime, rows.size(),
      [&](size_t i) { return static_cast<uint64_t>(rows[i]->template_id); },
      [](size_t i) { return static_cast<double>(i); },
      [&](size_t i) -> Result<JobFeatures> {
        Result<SpanResult> span = ComputeJobSpan(engine, rows[i]->instance);
        if (!span.ok()) return span.status();
        JobFeatures f;
        if (span->span.None()) return f;
        f.row = *rows[i];
        f.span = span->span;
        f.default_compilation = std::move(span->default_compilation);
        return f;
      },
      [&](size_t, Result<JobFeatures>&& f) {
        if (!f.ok()) {
          ++local.compile_failures;
          return;
        }
        if (f->span.None()) {
          ++local.empty_span_dropped;
          return;
        }
        out.push_back(std::move(*f));
      });
  local.emitted = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace qo::advisor
