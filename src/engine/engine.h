// The SCOPE engine facade: compile (parse -> logical plan -> optimize) and
// execute (cluster simulation) a job instance under a rule configuration.
//
// This is the component QO-Advisor steers: the pipeline talks to it for
// recompilation, and the flighting service uses it for pre-production runs.
//
// There is one compile path and one execute path. Compilation is served
// through the front-end cache (src/cache/): a config-independent, sharded,
// LRU-bounded map from content fingerprint to LogicalPlan, whose entries
// each carry the job's cross-config memo — the only store of compile
// results, consulted before (and fed after) every optimizer run.
// Execution runs every compilation through its prepared ExecutionProfile.
// Both are transparent — results are byte-identical to a direct
// CompileSource + Optimizer::Optimize + Prepare/Execute at any thread count
// (the tests' reference oracle); they only change how often the compiler
// and the stage decomposition actually run.
#ifndef QO_ENGINE_ENGINE_H_
#define QO_ENGINE_ENGINE_H_

#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "cache/compilation_cache.h"
#include "cache/reclaimer.h"
#include "common/status.h"
#include "exec/cluster.h"
#include "exec/metrics.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "optimizer/rules.h"
#include "workload/template_gen.h"

namespace qo::engine {

/// Compilation + one execution of a job. The compilation is shared with the
/// engine's cache (immutable; copy `*compilation` if mutation is needed).
struct JobRunResult {
  std::shared_ptr<const opt::CompilationOutput> compilation;
  exec::JobMetrics metrics;
};

/// Facade bundling the compiler, optimizer and cluster simulator.
///
/// Telemetry: cross-config memo outcomes ("optimizer.memo.{full_hits,
/// norm_hits,misses,full_dropped,norm_dropped}"), profile-slot lookups
/// ("exec.profile_{hits,misses}") and freed evicted entries
/// ("cache.front_end.{reclaimed,inline_frees}") are registry counters. The
/// engine's collector exports its front-end cache ("cache.front_end.{hits,
/// misses,evictions,entries,capacity}"); "optimizer.symbols" is exported
/// once per process.
///
/// Audited for the parallel runtime: compilation results are immutable and
/// the front-end cache is internally synchronized (sharded mutexes); the
/// cluster simulator seeds a local RNG per Execute call; the only
/// process-wide state touched (RuleRegistry, lexer keyword table) is
/// immutable after its thread-safe first-use initialization.
class ScopeEngine {
 public:
  explicit ScopeEngine(
      opt::OptimizerOptions optimizer_options = {},
      exec::ClusterConfig cluster_config = {},
      cache::CompileCacheOptions cache_options = {});
  /// Deregisters the engine's registry collector and waits until every
  /// entry it evicted has been freed.
  ~ScopeEngine();
  ScopeEngine(const ScopeEngine&) = delete;
  ScopeEngine& operator=(const ScopeEngine&) = delete;

  /// Parses, compiles and optimizes the instance's script under `config`.
  /// CompileError on parse/semantic errors or infeasible configurations.
  /// The returned output is shared with the cache and must not be mutated
  /// (copy `*output` if mutation is needed); a cache hit is O(1) regardless
  /// of plan size. Thread-safety: const and deterministic per (job, config),
  /// safe to call concurrently.
  /// [[deprecated]]-in-spirit for steered compile traffic: callers that want
  /// hint resolution should go through service::TenantSession::Compile,
  /// which resolves the tenant's published hint snapshot and then lands
  /// here. Direct use remains supported for unsteered/experiment paths.
  Result<std::shared_ptr<const opt::CompilationOutput>> CompileShared(
      const workload::JobInstance& job, const opt::RuleConfig& config) const;

  /// Front end only (lex + parse + resolve, no optimization), memoized
  /// across every configuration of the job. Exposed for tests and tools.
  Result<std::shared_ptr<const scope::LogicalPlan>> CompileFrontEnd(
      const workload::JobInstance& job) const;

  /// Compile + execute. `run_salt` differentiates repeated executions of the
  /// same instance (A/A and A/B runs); identical salts replay identically.
  /// Thread-safety: const and pure — all randomness derives from
  /// (job.run_seed, run_salt), safe to call concurrently.
  /// [[deprecated]]-in-spirit for production-shaped callers: prefer
  /// service::TenantSession::Compile + engine().Execute so the compile half
  /// picks up the tenant's published hints.
  Result<JobRunResult> Run(const workload::JobInstance& job,
                           const opt::RuleConfig& config,
                           uint64_t run_salt) const;

  /// Executes a compilation through its cached execution profile (prepared
  /// lazily on first use, then reused by every later run — A/A, A/B arms,
  /// eval loops). Thread-safety: const and pure — all randomness derives
  /// from (job.run_seed, run_salt); the profile slot is internally
  /// synchronized, safe to call concurrently.
  exec::JobMetrics Execute(const workload::JobInstance& job,
                           const opt::CompilationOutput& compilation,
                           uint64_t run_salt) const;

  /// Batched A/A runs over one prepared profile: the runs for salts
  /// `first_salt + i`, i in [0, runs). Element i is byte-identical to
  /// Execute(job, compilation, first_salt + i).
  std::vector<exec::JobMetrics> ExecuteRuns(
      const workload::JobInstance& job,
      const opt::CompilationOutput& compilation, uint64_t first_salt,
      int runs) const;

  /// The compilation's execution profile: reuses the slot when it already
  /// holds a profile for this engine's cluster config, otherwise prepares
  /// (and publishes) one.
  std::shared_ptr<const exec::ExecutionProfile> PrepareProfile(
      const workload::JobInstance& job,
      const opt::CompilationOutput& compilation) const;

  const opt::OptimizerOptions& optimizer_options() const {
    return optimizer_options_;
  }
  const exec::ClusterConfig& cluster_config() const {
    return simulator_.config();
  }

 private:
  /// The seed the simulator derives all of a run's stochastic draws from.
  static uint64_t RunSeed(const workload::JobInstance& job, uint64_t run_salt);
  /// Untimed bodies of CompileShared / Execute: the public entry points wrap
  /// these with one shared timing read feeding both the phase histogram
  /// ("span.compile" / "span.execute") and the job's per-template latency
  /// histogram. Purely observational — results are byte-identical with
  /// metrics on or off.
  Result<std::shared_ptr<const opt::CompilationOutput>> CompileSharedImpl(
      const workload::JobInstance& job, const opt::RuleConfig& config) const;
  exec::JobMetrics ExecuteImpl(const workload::JobInstance& job,
                               const opt::CompilationOutput& compilation,
                               uint64_t run_salt) const;
  /// Per-template latency histograms ("tpl.<template_name>.compile_ns" /
  /// ".exec_ns"), resolved once per template then served under a shared
  /// lock. Recurring templates only: one-off jobs carry a unique day-scoped
  /// template id each, so tracking them would grow the registry without
  /// bound (they still land in the aggregate span.compile/span.execute
  /// histograms).
  struct TemplateHists {
    obs::Histogram* compile_ns = nullptr;
    obs::Histogram* exec_ns = nullptr;
  };
  TemplateHists TemplateHistsFor(const workload::JobInstance& job) const;
  /// The job's front-end cache entry, parsing on miss. Entries the insert
  /// evicts go to the reclaimer.
  cache::FrontEndPtr FrontEnd(const workload::JobInstance& job) const;
  /// Probes the front-end entry's footprint memo before (and feeds it
  /// after) a real optimizer run. Returns a shared output — a full-tier hit
  /// and the memo insert are both refcount bumps on the one immutable
  /// CompilationOutput.
  Result<std::shared_ptr<const opt::CompilationOutput>> OptimizeWithMemo(
      const cache::CachedFrontEnd& fe, const workload::JobInstance& job,
      const opt::RuleConfig& config) const;

  opt::OptimizerOptions optimizer_options_;
  exec::ClusterSimulator simulator_;
  /// Folded into every cache key so options changes can never alias.
  uint64_t options_fingerprint_ = 0;
  /// Mutable state behind const CompileShared; internally synchronized.
  mutable cache::FrontEndCache front_end_;
  /// Frees the entries front_end_ evicts, off the compile path: the
  /// process-wide reclaimer (see reclaimer.h for why it is shared), bound
  /// at construction so that it outlives every engine, static ones too.
  cache::Reclaimer& reclaimer_;
  /// template_id -> latency histograms (read-mostly: shared lock on hit).
  mutable std::shared_mutex tpl_mu_;
  mutable std::unordered_map<int, TemplateHists> tpl_hists_;
  /// Registry collector exporting the front-end cache (removed in the
  /// destructor).
  int collector_id_ = -1;
};

}  // namespace qo::engine

#endif  // QO_ENGINE_ENGINE_H_
