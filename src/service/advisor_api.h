// The unified advisor API: typed request/response pairs for the four
// operations a steered optimizer deployment serves continuously — rank
// (choose a rule flip to try), reward (close the feedback loop), compile
// (steer a job by the published hints) and hint upload (publish a new hint
// file) — plus the abstract AdvisorApi they hang off.
//
// This façade replaces three scattered entry points callers used to wire
// together by hand: ScopeEngine::CompileShared + a manual SIS lookup,
// PersonalizerService::Rank/Reward, and StatsInsightService::UploadHintFile.
// Every call is tenant-addressed; AdvisorService routes it to that tenant's
// isolated state (engine + compile cache, personalizer, SIS) and serves
// compiles from the tenant's published RCU snapshot (see advisor_service.h).
#ifndef QO_SERVICE_ADVISOR_API_H_
#define QO_SERVICE_ADVISOR_API_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bandit/personalizer.h"
#include "common/status.h"
#include "optimizer/optimizer.h"
#include "sis/sis.h"
#include "workload/template_gen.h"

namespace qo::service {

/// Rank: choose one of `actions` for `context`, logging the decision for a
/// later reward join under `event_id`.
struct RankRequest {
  std::string tenant;
  std::string event_id;
  bandit::FeatureVector context;
  std::vector<bandit::RankableAction> actions;
  /// Uniform-at-random logging arm (see bandit::RankRequest).
  bool explore_uniform = false;
};

struct RankResponse {
  std::string event_id;
  /// Typed id for the reward join — carry this into RewardRequest::event
  /// and the join indexes the event log, no string hashing.
  bandit::EventId event;
  size_t chosen_index = 0;
  std::string chosen_action_id;
  double probability = 1.0;  ///< propensity of the chosen action
  /// The tenant's latest publication when the live model scored this
  /// request (read under the tenant mutex that also orders publications).
  uint64_t snapshot_sequence = 0;
};

/// Reward: attach an outcome to a previously ranked event, named by the
/// typed `event` its RankResponse carried.
struct RewardRequest {
  std::string tenant;
  bandit::EventId event;
  double reward = 0.0;
};

struct RewardResponse {
  /// Rewarded events accumulated by the tenant's learner so far.
  size_t rewarded_events = 0;
};

/// Compile: steer `job` by the tenant's published hint snapshot (or compile
/// the default configuration when `apply_hints` is false).
struct CompileRequest {
  std::string tenant;
  workload::JobInstance job;
  bool apply_hints = true;
};

struct CompileResponse {
  /// Shared with the tenant engine's compilation cache; must not be mutated.
  std::shared_ptr<const opt::CompilationOutput> compilation;
  bool hint_applied = false;
  int rule_id = -1;  ///< the flip a hint applied; -1 = default config
  /// Version of the hint snapshot consulted (SIS version at publish time).
  int sis_version = 0;
};

/// UploadHints: validate + install a hint file as the tenant's next SIS
/// version and republish the tenant snapshot so concurrent compiles see it.
struct UploadHintsRequest {
  std::string tenant;
  sis::HintFile file;
};

struct UploadHintsResponse {
  int version = 0;          ///< installed SIS version
  size_t active_hints = 0;  ///< active hint count after the upload
  uint64_t snapshot_sequence = 0;  ///< publication that carries the hints
};

/// The unified advisor surface. One implementation — AdvisorService — serves
/// all four operations concurrently; the interface exists so tools and tests
/// can wrap or fake the service without threading four subsystem pointers.
class AdvisorApi {
 public:
  virtual ~AdvisorApi() = default;

  virtual Result<RankResponse> Rank(const RankRequest& request) = 0;
  virtual Result<RewardResponse> Reward(const RewardRequest& request) = 0;
  virtual Result<CompileResponse> Compile(const CompileRequest& request) = 0;
  virtual Result<UploadHintsResponse> UploadHints(
      const UploadHintsRequest& request) = 0;
};

}  // namespace qo::service

#endif  // QO_SERVICE_ADVISOR_API_H_
