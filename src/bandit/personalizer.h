// A local stand-in for the Azure Personalizer service (paper Sec. 4.2 /
// Sec. 6 "Do not reinvent the wheel").
//
// Exposes the same contract QO-Advisor depends on:
//  - Rank(context, actions) -> (chosen action, probability, event id),
//  - Reward(event id, reward) joined against a high-fidelity event log,
//  - periodic retraining of the underlying contextual bandit model,
//  - counterfactual (IPS) evaluation of a policy over the logged data.
//
// Training is incremental: a rewarded event's combined features are queued
// (by shared_ptr, no copy) into a pending batch at Reward time, and
// Retrain() consumes only that batch — the event log is never rescanned.
// The log itself is bounded by a retention policy (see
// PersonalizerConfig::retention_window): one service instance can run for
// an unbounded number of pipeline days in constant memory.
//
// Telemetry: every event below is a registry counter — "bandit.ranks",
// "bandit.combines" / "bandit.precombined_reused" (combined vectors built
// inside Rank vs shared from the caller), "bandit.reward_joins",
// "bandit.reward_failures", "bandit.retrains" (Retrain() calls),
// "bandit.examples_trained" (examples consumed by Retrain() or handed out
// by TakePendingBatch()) and "bandit.events_compacted". The pipeline's
// collector exports the learner's resident_events() and retention window.
#ifndef QO_BANDIT_PERSONALIZER_H_
#define QO_BANDIT_PERSONALIZER_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bandit/cb_model.h"
#include "bandit/features.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/symbol_table.h"

namespace qo::bandit {

/// One rankable action.
struct RankableAction {
  std::string action_id;
  FeatureVector features;
};

/// Typed event identity: a dense id interned in the service's own
/// SymbolTable at Rank time and carried through RankResponse back into the
/// reward join. The join map is keyed by this integer, so a Reward() with a
/// typed id never hashes or compares the event-id string — the string form
/// survives only for request construction and error messages.
struct EventId {
  Symbol value = kNoSymbol;

  bool valid() const { return value != kNoSymbol; }
  friend bool operator==(EventId, EventId) = default;
};

struct EventIdHash {
  size_t operator()(EventId id) const { return id.value; }
};

struct RankRequest {
  std::string event_id;
  FeatureVector context;
  std::vector<RankableAction> actions;
  /// When true, the service ranks uniformly at random regardless of the
  /// model — the logging arm of the paper's off-policy design (Sec. 4.2).
  bool explore_uniform = false;
  /// Optional shared combined (context x action) vectors, one per action
  /// (see CombineActionSet). When non-empty it must match actions.size();
  /// the service then logs these shared vectors instead of recombining
  /// context x action per call. This is how the Recommender's per-job
  /// combined-feature cache flows through every uniform probe and the
  /// acting arm of one job: one combine, many Rank calls.
  std::vector<std::shared_ptr<const SparseVector>> precombined;
};

struct RankResponse {
  std::string event_id;
  /// Typed id for the reward join: Reward(event) is an integer-keyed map
  /// probe, no string hashing. Always valid on an OK response.
  EventId event;
  size_t chosen_index = 0;
  std::string chosen_action_id;
  double probability = 1.0;  ///< propensity of the chosen action
};

struct PersonalizerConfig {
  /// Exploration rate of the learned policy (epsilon-greedy).
  double epsilon = 0.10;
  CbModelConfig model = {};
  uint64_t seed = 7;
  /// Retrain after this many new rewarded events.
  size_t retrain_interval = 256;
  /// Retention policy: keep at most this many events resident in the log
  /// (0 = unlimited). When the log grows past the window the oldest events
  /// are dropped: rewarded events have already been captured for training
  /// (and consumed by any intervening retrain), and unrewarded events past
  /// the window have exceeded the reward-join horizon — a later Reward()
  /// for them returns NotFound, as a production join window would.
  /// EvaluateOffline() evaluates over the retained window.
  size_t retention_window = 16384;
};

/// Builds the shared combined-feature set for one (context, action set)
/// pair — the unit the Recommender caches per job and hands to every Rank
/// call via RankRequest::precombined.
std::vector<std::shared_ptr<const SparseVector>> CombineActionSet(
    const FeatureVector& context, const std::vector<RankableAction>& actions);

/// The service. Thread-compatible, not thread-safe (matches the offline
/// daily-pipeline usage).
/// Thread-safety: Rank/Reward/Retrain mutate the event log, the learning
/// state and a shared Rng, and a retrain between two Rank calls changes
/// every later choice — so the runtime never fans these out. The parallel
/// recommendation path pre-evaluates recompilations concurrently and keeps
/// all Personalizer traffic on the committing thread, in submission order.
class PersonalizerService {
 public:
  explicit PersonalizerService(PersonalizerConfig config = {});

  /// Ranks the actions; logs the decision for later reward joining.
  /// InvalidArgument when the request has no actions, a duplicate event id,
  /// or a precombined set whose size disagrees with the action set.
  ///
  /// `serving_model` overrides the model used for scoring (epsilon-greedy
  /// argmax) without touching the learning state — the advisor service
  /// passes its published RCU snapshot's model here, so ranking reads a
  /// frozen model while the trainer works on the next one. Null scores with
  /// the learner's own model (the offline pipeline's behaviour).
  ///
  /// [[deprecated]]-in-comment for service callers: prefer
  /// service::TenantSession::Rank, which snapshots the serving model and
  /// serializes per-tenant traffic for you.
  Result<RankResponse> Rank(const RankRequest& request,
                            const CbModel* serving_model = nullptr);

  /// Attaches a reward to a previously ranked event and queues the chosen
  /// arm's features for the next incremental retrain. The join is one
  /// integer map probe, no string hashing. NotFound for invalid, unknown or
  /// retention-expired events; FailedPrecondition for already-rewarded ones.
  Status Reward(EventId event, double reward);

  /// Trains the model on the examples rewarded since the last retrain (the
  /// pending batch), then compacts the event log per the retention policy.
  void Retrain();

  /// Moves out the pending batch without training, advancing the retrain
  /// watermark and compacting the log. The advisor service's trainer drains
  /// the batch under the tenant lock, trains a model copy outside it, and
  /// publishes the result as a new snapshot — Retrain() is equivalent to
  /// TakePendingBatch + Train + AdoptModel in one (single-threaded) step.
  /// Counts the batch's examples as trained but no retrain: the service
  /// counts its publications instead.
  std::vector<LoggedExample> TakePendingBatch();

  /// Replaces the learner's model (the write-back half of the service
  /// trainer's drain/train/publish cycle).
  void AdoptModel(CbModel model) { model_ = std::move(model); }

  /// Counterfactual IPS estimate of the *current greedy policy*'s average
  /// reward over the retained log window, and of the logging baseline.
  /// Requires at least one retained rewarded event.
  struct OfflineEvaluation {
    double logged_average_reward = 0.0;
    double policy_ips_estimate = 0.0;
    size_t events = 0;
  };
  Result<OfflineEvaluation> EvaluateOffline() const;

  /// Total events ever logged (monotonic, unaffected by retention).
  size_t logged_events() const { return log_base_ + log_.size(); }
  /// Events currently resident in the log (bounded by retention_window).
  size_t resident_events() const { return log_.size(); }
  size_t rewarded_events() const { return rewarded_; }
  const CbModel& model() const { return model_; }
  const PersonalizerConfig& config() const { return config_; }

 private:
  struct LoggedEvent {
    EventId id;
    std::vector<std::shared_ptr<const SparseVector>> action_features;
    size_t chosen = 0;
    double probability = 1.0;
    bool has_reward = false;
    double reward = 0.0;
  };

  /// Greedy argmax under `model`. Near-ties are broken uniformly
  /// at random when `rng` is provided — an untrained model therefore ranks
  /// uniformly-at-random, exactly the CB cold-start behaviour the paper
  /// describes (Sec. 3.1). Pass nullptr for deterministic (first-wins)
  /// selection, used by offline evaluation.
  size_t BestAction(const CbModel& model, const LoggedEvent& ev,
                    Rng* rng) const;

  /// Drops the oldest events while the log exceeds retention_window.
  void CompactLog();

  PersonalizerConfig config_;
  CbModel model_;
  Rng rng_;
  /// Service-local intern table for event ids — not the process-wide one:
  /// event ids are unique per event, so interning them globally would bloat
  /// the compile path's table. Growth is scoped to the service instance;
  /// Resolve(id.value) recovers the string for error messages.
  SymbolTable event_syms_;
  /// Event log as a sliding window: log_[k] has global index log_base_ + k.
  std::deque<LoggedEvent> log_;
  size_t log_base_ = 0;
  /// typed event id -> global event index (compacted events erased). An
  /// integer-keyed probe: the reward join never hashes the id string.
  std::unordered_map<EventId, size_t, EventIdHash> event_index_;
  /// Examples rewarded since the last retrain (features shared with log_).
  std::vector<LoggedExample> pending_;
  size_t rewarded_ = 0;
  size_t rewarded_at_last_train_ = 0;
};

}  // namespace qo::bandit

#endif  // QO_BANDIT_PERSONALIZER_H_
