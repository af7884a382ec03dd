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
// Off-lock training (BeginTrain / FinishTrain): the advisor service trains
// a second model while Rank keeps scoring the live one. The learner keeps
// that second model as a recycled spare — the previous generation — plus
// the batch that separates it from the live model, so catching the spare
// up costs O(weights that batch touched) (CbModel::SyncFrom), not a 1 MiB
// copy. Only when no valid spare exists (the first cycle, or after any
// other write to the live model) does BeginTrain copy the whole model.
//
// Telemetry: every event below is a registry counter — "bandit.ranks",
// "bandit.combines" / "bandit.precombined_reused" (combined vectors built
// inside Rank vs shared from the caller), "bandit.reward_joins",
// "bandit.reward_failures", "bandit.retrains" (Retrain() calls),
// "bandit.examples_trained" (examples consumed by Retrain() or handed out
// by BeginTrain()), "bandit.model_copies" (full model copies BeginTrain
// made for want of a valid spare) and "bandit.events_compacted". The
// pipeline's collector exports the learner's resident_events() and
// retention window.
#ifndef QO_BANDIT_PERSONALIZER_H_
#define QO_BANDIT_PERSONALIZER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bandit/cb_model.h"
#include "bandit/features.h"
#include "common/rng.h"
#include "common/status.h"

namespace qo::bandit {

/// One rankable action.
struct RankableAction {
  std::string action_id;
  FeatureVector features;
};

/// Typed event identity: the event's global log index, assigned at Rank
/// time and carried through RankResponse back into the reward join. The
/// join indexes the log directly — no hashing, no string compare. Indices
/// are never reused, so an id whose event was compacted stays NotFound
/// even after a later Rank reuses its event-id string.
struct EventId {
  static constexpr uint64_t kInvalid = ~uint64_t{0};
  uint64_t value = kInvalid;

  bool valid() const { return value != kInvalid; }
  friend bool operator==(EventId, EventId) = default;
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
  /// Typed id for the reward join: Reward(event) indexes the event log, no
  /// string hashing. Always valid on an OK response.
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
/// recommendation path prepares jobs (features, recompilations)
/// concurrently and keeps all Personalizer traffic on the committing
/// thread, in submission order.
/// The one exception is a TrainTicket's model: BeginTrain hands it out, and
/// its owner may train it on any thread while other calls proceed, then
/// returns it through FinishTrain.
class PersonalizerService {
 public:
  explicit PersonalizerService(PersonalizerConfig config = {});

  /// Ranks the actions with the live model; logs the decision for later
  /// reward joining. InvalidArgument when the request has no actions, an
  /// event id already resident in the log, or a precombined set whose size
  /// disagrees with the action set.
  Result<RankResponse> Rank(const RankRequest& request);

  /// Attaches a reward to a previously ranked event and queues the chosen
  /// arm's features for the next incremental retrain. The join indexes the
  /// log by the event's global index. NotFound for invalid, never-issued or
  /// retention-expired events; FailedPrecondition for already-rewarded ones.
  Status Reward(EventId event, double reward);

  /// Trains the live model on the examples rewarded since the last retrain
  /// (the pending batch), then compacts the event log per the retention
  /// policy. Writing the live model in place discards the spare.
  void Retrain();

  /// One off-lock retrain cycle: the batch BeginTrain drained, and a model
  /// equal to the live model at BeginTrain that the holder trains on it.
  struct TrainTicket {
    std::vector<LoggedExample> batch;
    CbModel model;
    /// live_writes_ at BeginTrain; FinishTrain detects foreign writes.
    uint64_t base_writes = 0;
  };

  /// Drains the pending batch (advancing the retrain watermark and
  /// compacting the log, like Retrain) and returns it with the spare,
  /// caught up to the live model. Without a valid spare it copies the live
  /// model instead ("bandit.model_copies"). nullopt when nothing is pending.
  /// Counts the batch's examples as trained but no retrain: the advisor
  /// service counts its publications instead.
  std::optional<TrainTicket> BeginTrain();

  /// Installs a ticket whose model was trained on its batch: the trained
  /// model becomes the live model, the old live model becomes the spare and
  /// the ticket's batch the lag between them. If the live model was written
  /// since BeginTrain, the ticket's model is stale: the live model is
  /// trained on the batch in place instead and the spare is discarded, so
  /// no example's training is lost either way.
  void FinishTrain(TrainTicket ticket);

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
  /// Event-id strings indexed for duplicate detection — always equal to
  /// resident_events(), so bounded by the retention window too.
  size_t indexed_event_ids() const { return resident_ids_.size(); }
  size_t rewarded_events() const { return rewarded_; }
  /// The live model: what Rank scores and the next BeginTrain starts from.
  const CbModel& model() const { return model_; }
  const PersonalizerConfig& config() const { return config_; }

 private:
  struct LoggedEvent {
    /// The request's event-id string; resident_ids_ keys view into it.
    std::string event_id;
    std::vector<std::shared_ptr<const SparseVector>> action_features;
    size_t chosen = 0;
    double probability = 1.0;
    bool has_reward = false;
    double reward = 0.0;
  };

  /// Greedy argmax under the live model. Near-ties are broken uniformly
  /// at random when `rng` is provided — an untrained model therefore ranks
  /// uniformly-at-random, exactly the CB cold-start behaviour the paper
  /// describes (Sec. 3.1). Pass nullptr for deterministic (first-wins)
  /// selection, used by offline evaluation.
  size_t BestAction(const LoggedEvent& ev, Rng* rng) const;

  /// Drops the oldest events while the log exceeds retention_window.
  void CompactLog();

  /// Discards the spare after a write to the live model the lag batch
  /// does not describe.
  void DropSpare();

  PersonalizerConfig config_;
  CbModel model_;
  /// The previous generation: model_ is exactly spare_ trained on lag_.
  /// Empty until the first FinishTrain and after any other model write.
  std::optional<CbModel> spare_;
  std::vector<LoggedExample> lag_;
  /// Bumped by every write to model_ (Retrain, FinishTrain).
  uint64_t live_writes_ = 0;
  Rng rng_;
  /// Event log as a sliding window: log_[k] has global index log_base_ + k,
  /// which is the event's EventId.
  std::deque<LoggedEvent> log_;
  size_t log_base_ = 0;
  /// Resident event-id string -> global index, for duplicate detection and
  /// error messages. Keys view into log_'s own strings (deque elements never
  /// move), and compaction erases them with their events, so this map never
  /// outgrows the retention window.
  std::unordered_map<std::string_view, size_t> resident_ids_;
  /// Examples rewarded since the last retrain (features shared with log_).
  std::vector<LoggedExample> pending_;
  size_t rewarded_ = 0;
  size_t rewarded_at_last_train_ = 0;
};

}  // namespace qo::bandit

#endif  // QO_BANDIT_PERSONALIZER_H_
