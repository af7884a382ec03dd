#include "engine/engine.h"

#include <mutex>
#include <string>
#include <utility>

#include "cache/fingerprint.h"
#include "common/symbol_table.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "scope/compiler.h"

namespace qo::engine {

namespace {

// Phase histograms for the manually timed wrappers (CompileShared/Execute
// need the measured duration twice — phase + per-template — so they read the
// clock themselves instead of using QO_OBS_SPAN).
obs::Histogram& CompileSpanHist() {
  static obs::Histogram* h = &obs::Registry::Get().histogram("span.compile");
  return *h;
}

obs::Histogram& ExecuteSpanHist() {
  static obs::Histogram* h = &obs::Registry::Get().histogram("span.execute");
  return *h;
}

}  // namespace

ScopeEngine::ScopeEngine(opt::OptimizerOptions optimizer_options,
                         exec::ClusterConfig cluster_config,
                         cache::CompileCacheOptions cache_options)
    : optimizer_options_(optimizer_options),
      simulator_(cluster_config),
      options_fingerprint_(
          cache::OptimizerOptionsFingerprint(optimizer_options)),
      front_end_(cache_options.capacity, cache_options.num_shards),
      reclaimer_(cache::Reclaimer::Global()) {
  // The symbol table is process-wide, so its size is one series however
  // many engines are alive: registered by the first engine, never removed.
  static const int symbols_collector [[maybe_unused]] =
      obs::Registry::Get().AddCollector([](obs::SeriesSink& sink) {
        sink.Add("optimizer.symbols",
                 static_cast<double>(SymbolTable::Global().size()));
      });
  // Per-engine cache state; the sink sums it across engines. The callback
  // never calls back into the registry (whose lock is held in Snapshot()).
  collector_id_ =
      obs::Registry::Get().AddCollector([this](obs::SeriesSink& sink) {
        const cache::Stats s = front_end_.stats();
        sink.Add("cache.front_end.hits", static_cast<double>(s.hits));
        sink.Add("cache.front_end.misses", static_cast<double>(s.misses));
        sink.Add("cache.front_end.evictions",
                 static_cast<double>(s.evictions));
        sink.Add("cache.front_end.entries", static_cast<double>(s.entries));
        sink.Add("cache.front_end.capacity", static_cast<double>(s.capacity));
      });
}

ScopeEngine::~ScopeEngine() {
  obs::Registry::Get().RemoveCollector(collector_id_);
  reclaimer_.Flush();
}

cache::FrontEndPtr ScopeEngine::FrontEnd(
    const workload::JobInstance& job) const {
  cache::FrontEndKey key;
  key.script_hash = HashBytesWide(job.script.data(), job.script.size());
  key.catalog_fingerprint =
      job.catalog.StatsFingerprint() ^ options_fingerprint_;
  std::vector<cache::FrontEndPtr> evicted;
  cache::FrontEndPtr entry = front_end_.GetOrCompute(
      key,
      [&] {
        auto fresh = std::make_shared<cache::CachedFrontEnd>();
        QO_OBS_SPAN("parse");
        Result<scope::LogicalPlan> result =
            scope::CompileSource(job.script, job.catalog);
        if (result.ok()) {
          fresh->plan = std::move(result).value();
        } else {
          fresh->status = result.status();
        }
        return cache::FrontEndPtr(std::move(fresh));
      },
      &evicted);
  reclaimer_.Retire(&evicted);
  return entry;
}

Result<std::shared_ptr<const opt::CompilationOutput>>
ScopeEngine::OptimizeWithMemo(const cache::CachedFrontEnd& fe,
                              const workload::JobInstance& job,
                              const opt::RuleConfig& config) const {
  opt::CrossConfigMemo& memo = fe.cross_config_memo;

  // Full-tier probe: some earlier compile consulted only bits this config
  // agrees on (an exact repeat always does), so its output (or
  // deterministic error) is this config's too.
  Status stored_status = Status::OK();
  std::shared_ptr<const opt::CompilationOutput> stored_output;
  if (memo.FindFull(config.bits(), &stored_status, &stored_output)) {
    QO_OBS_COUNT("optimizer.memo.full_hits", 1);
    if (!stored_status.ok()) return stored_status;
    return stored_output;
  }

  // Opened past the full-tier probe: "span.optimize" times optimizer runs
  // only, and the probe stays in the caller's cache time.
  QO_OBS_SPAN("optimize");
  opt::Optimizer optimizer(job.catalog, optimizer_options_);
  // Records a finished compile under its whole footprint and shares it.
  auto publish = [&](Result<opt::CompilationOutput> result,
                     const BitVector256& footprint)
      -> Result<std::shared_ptr<const opt::CompilationOutput>> {
    if (!result.ok()) {
      memo.InsertFull(footprint, config.bits(), result.status(), nullptr);
      return result.status();
    }
    auto shared = std::make_shared<const opt::CompilationOutput>(
        std::move(result).value());
    memo.InsertFull(footprint, config.bits(), Status::OK(), shared);
    return std::shared_ptr<const opt::CompilationOutput>(std::move(shared));
  };

  // Normalized-tier probe: share the validated + normalized plan's memo
  // seed and rerun only the cost-based search under this config.
  BitVector256 norm_consulted;
  BitVector256 post_consulted;
  opt::NormalizedPlan normalized;
  if (memo.FindNorm(config.bits(), &normalized, &norm_consulted)) {
    QO_OBS_COUNT("optimizer.memo.norm_hits", 1);
    Result<opt::CompilationOutput> result =
        optimizer.OptimizeFromNormalized(normalized, config, &post_consulted);
    return publish(std::move(result), norm_consulted | post_consulted);
  }

  // Miss: full pipeline, recording both footprints for future configs.
  QO_OBS_COUNT("optimizer.memo.misses", 1);
  Result<opt::CompilationOutput> result = optimizer.OptimizeTracked(
      fe.plan, config, &norm_consulted, &post_consulted, &normalized);
  if (normalized.seed != nullptr) {
    memo.InsertNorm(norm_consulted, config.bits(), std::move(normalized));
  }
  return publish(std::move(result), norm_consulted | post_consulted);
}

Result<std::shared_ptr<const scope::LogicalPlan>> ScopeEngine::CompileFrontEnd(
    const workload::JobInstance& job) const {
  cache::FrontEndPtr entry = FrontEnd(job);
  if (!entry->status.ok()) return entry->status;
  // Alias the plan to the cache entry: one refcount, zero copies.
  return std::shared_ptr<const scope::LogicalPlan>(entry, &entry->plan);
}

Result<std::shared_ptr<const opt::CompilationOutput>>
ScopeEngine::CompileShared(const workload::JobInstance& job,
                           const opt::RuleConfig& config) const {
  if (!obs::MetricsEnabled()) return CompileSharedImpl(job, config);
  const uint64_t start_ns = obs::MonotonicNowNs();
  auto result = CompileSharedImpl(job, config);
  const uint64_t end_ns = obs::MonotonicNowNs();
  const uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  CompileSpanHist().Record(dur);
  if (job.recurring) {
    if (obs::Histogram* tpl = TemplateHistsFor(job).compile_ns) {
      tpl->Record(dur);
    }
  }
  if (obs::TraceEnabled()) obs::TraceRecordSpan("compile", start_ns, end_ns);
  return result;
}

Result<std::shared_ptr<const opt::CompilationOutput>>
ScopeEngine::CompileSharedImpl(const workload::JobInstance& job,
                               const opt::RuleConfig& config) const {
  cache::FrontEndPtr fe = FrontEnd(job);
  if (!fe->status.ok()) return fe->status;
  return OptimizeWithMemo(*fe, job, config);
}

Result<JobRunResult> ScopeEngine::Run(const workload::JobInstance& job,
                                      const opt::RuleConfig& config,
                                      uint64_t run_salt) const {
  QO_ASSIGN_OR_RETURN(std::shared_ptr<const opt::CompilationOutput> compiled,
                      CompileShared(job, config));
  JobRunResult result;
  result.metrics = Execute(job, *compiled, run_salt);
  result.compilation = std::move(compiled);
  return result;
}

uint64_t ScopeEngine::RunSeed(const workload::JobInstance& job,
                              uint64_t run_salt) {
  return job.run_seed ^ (run_salt * 0xbf58476d1ce4e5b9ULL + 1);
}

exec::JobMetrics ScopeEngine::Execute(const workload::JobInstance& job,
                                      const opt::CompilationOutput& compilation,
                                      uint64_t run_salt) const {
  if (!obs::MetricsEnabled()) return ExecuteImpl(job, compilation, run_salt);
  const uint64_t start_ns = obs::MonotonicNowNs();
  exec::JobMetrics metrics = ExecuteImpl(job, compilation, run_salt);
  const uint64_t end_ns = obs::MonotonicNowNs();
  const uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  ExecuteSpanHist().Record(dur);
  if (job.recurring) {
    if (obs::Histogram* tpl = TemplateHistsFor(job).exec_ns) tpl->Record(dur);
  }
  if (obs::TraceEnabled()) obs::TraceRecordSpan("execute", start_ns, end_ns);
  return metrics;
}

exec::JobMetrics ScopeEngine::ExecuteImpl(
    const workload::JobInstance& job, const opt::CompilationOutput& compilation,
    uint64_t run_salt) const {
  std::shared_ptr<const exec::ExecutionProfile> profile =
      PrepareProfile(job, compilation);
  return simulator_.Execute(*profile, RunSeed(job, run_salt));
}

std::vector<exec::JobMetrics> ScopeEngine::ExecuteRuns(
    const workload::JobInstance& job, const opt::CompilationOutput& compilation,
    uint64_t first_salt, int runs) const {
  // Batch granularity on purpose: per-run clocking would dominate the
  // ~300ns prepared-run path. Per-call latency lives under "span.execute".
  QO_OBS_SPAN("exec.run_batch");
  std::vector<exec::JobMetrics> out;
  out.reserve(runs > 0 ? static_cast<size_t>(runs) : 0);
  std::shared_ptr<const exec::ExecutionProfile> profile =
      PrepareProfile(job, compilation);
  for (int i = 0; i < runs; ++i) {
    out.push_back(simulator_.Execute(
        *profile, RunSeed(job, first_salt + static_cast<uint64_t>(i))));
  }
  return out;
}

std::shared_ptr<const exec::ExecutionProfile> ScopeEngine::PrepareProfile(
    const workload::JobInstance& job,
    const opt::CompilationOutput& compilation) const {
  // Reuse requires the stored profile to match both the cluster config and
  // the catalog statistics: scan work bakes in table sizes, so a compilation
  // executed against drifted stats must re-prepare.
  const uint64_t catalog_fp = job.catalog.StatsFingerprint();  // O(1)
  auto matches = [&](const exec::ExecutionProfile& p) {
    return p.config_fingerprint == simulator_.config_fingerprint() &&
           p.catalog_fingerprint == catalog_fp;
  };
  std::shared_ptr<const exec::ExecutionProfile> existing =
      compilation.exec_profile.Load();
  if (existing != nullptr && matches(*existing)) {
    QO_OBS_COUNT("exec.profile_hits", 1);
    return existing;
  }
  QO_OBS_COUNT("exec.profile_misses", 1);
  QO_OBS_SPAN("exec.prepare");
  std::shared_ptr<const exec::ExecutionProfile> fresh =
      simulator_.PrepareShared(compilation.plan, job.catalog);
  std::shared_ptr<const exec::ExecutionProfile> winner =
      compilation.exec_profile.TryStore(fresh);
  // The slot can hold a foreign profile when a compilation is shared across
  // engines with different cluster configs (or executed against drifted
  // statistics); keep ours local then instead of clobbering the slot.
  return matches(*winner) ? winner : fresh;
}

ScopeEngine::TemplateHists ScopeEngine::TemplateHistsFor(
    const workload::JobInstance& job) const {
  {
    std::shared_lock<std::shared_mutex> lock(tpl_mu_);
    auto it = tpl_hists_.find(job.template_id);
    if (it != tpl_hists_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(tpl_mu_);
  auto [it, inserted] = tpl_hists_.try_emplace(job.template_id);
  if (inserted) {
    const std::string base = "tpl." + job.template_name;
    it->second.compile_ns = &obs::Registry::Get().histogram(base + ".compile_ns");
    it->second.exec_ns = &obs::Registry::Get().histogram(base + ".exec_ns");
  }
  return it->second;
}

}  // namespace qo::engine
