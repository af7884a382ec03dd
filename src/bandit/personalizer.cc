#include "bandit/personalizer.h"

#include <algorithm>

#include "obs/span.h"

namespace qo::bandit {

std::vector<std::shared_ptr<const SparseVector>> CombineActionSet(
    const FeatureVector& context, const std::vector<RankableAction>& actions) {
  std::vector<std::shared_ptr<const SparseVector>> combined;
  combined.reserve(actions.size());
  for (const auto& action : actions) {
    combined.push_back(CombineFeaturesShared(context, action.features));
  }
  return combined;
}

PersonalizerService::PersonalizerService(PersonalizerConfig config)
    : config_(config), model_(config.model), rng_(config.seed) {}

Result<RankResponse> PersonalizerService::Rank(const RankRequest& request) {
  QO_OBS_SPAN("rank");
  if (request.actions.empty()) {
    return Status::InvalidArgument("Rank requires at least one action");
  }
  if (!request.precombined.empty()) {
    if (request.precombined.size() != request.actions.size()) {
      return Status::InvalidArgument(
          "precombined features disagree with action set: " +
          std::to_string(request.precombined.size()) + " vs " +
          std::to_string(request.actions.size()));
    }
    for (const auto& combined : request.precombined) {
      if (combined == nullptr) {
        return Status::InvalidArgument("null precombined feature vector");
      }
    }
  }
  if (auto dup = resident_ids_.find(request.event_id);
      dup != resident_ids_.end()) {
    return Status::InvalidArgument("duplicate event id: " + request.event_id +
                                   " (event #" + std::to_string(dup->second) +
                                   ")");
  }
  const EventId event{logged_events()};
  LoggedEvent ev;
  ev.event_id = request.event_id;
  if (!request.precombined.empty()) {
    // Shared combined-feature cache hit: adopt the caller's vectors. The
    // probes and acting arm of one job all log the same shared_ptrs.
    ev.action_features = request.precombined;
    QO_OBS_COUNT("bandit.precombined_reused", request.precombined.size());
  } else {
    ev.action_features.reserve(request.actions.size());
    for (const auto& action : request.actions) {
      ev.action_features.push_back(
          CombineFeaturesShared(request.context, action.features));
    }
    QO_OBS_COUNT("bandit.combines", request.actions.size());
  }
  const size_t n = request.actions.size();
  size_t chosen;
  double probability;
  if (request.explore_uniform) {
    chosen = rng_.UniformInt(n);
    probability = 1.0 / static_cast<double>(n);
  } else {
    size_t best = BestAction(ev, &rng_);
    if (rng_.Bernoulli(config_.epsilon)) {
      chosen = rng_.UniformInt(n);
    } else {
      chosen = best;
    }
    double uniform_part = config_.epsilon / static_cast<double>(n);
    probability = chosen == best ? (1.0 - config_.epsilon) + uniform_part
                                 : uniform_part;
  }
  ev.chosen = chosen;
  ev.probability = probability;
  log_.push_back(std::move(ev));
  resident_ids_.emplace(log_.back().event_id, event.value);
  QO_OBS_COUNT("bandit.ranks", 1);
  CompactLog();

  RankResponse resp;
  resp.event_id = request.event_id;
  resp.event = event;
  resp.chosen_index = chosen;
  resp.chosen_action_id = request.actions[chosen].action_id;
  resp.probability = probability;
  return resp;
}

size_t PersonalizerService::BestAction(const LoggedEvent& ev,
                                       Rng* rng) const {
  constexpr double kTieTolerance = 1e-9;
  // Score every arm in one vectorized batch, then replay the selection
  // loop over the precomputed scores. The replay draws from `rng` exactly
  // when the sequential loop would have (draws depend only on score
  // comparisons, and batch scores are bit-identical to Score()), so the
  // RNG stream is unchanged.
  const std::vector<double> scores = model_.ScoreBatch(ev.action_features);
  size_t best = 0;
  double best_score = -1e300;
  size_t ties = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    const double s = scores[i];
    if (s > best_score + kTieTolerance) {
      best_score = s;
      best = i;
      ties = 1;
    } else if (rng != nullptr && s > best_score - kTieTolerance) {
      // Reservoir-sample among near-ties for uniform cold-start ranking.
      ++ties;
      if (rng->UniformInt(ties) == 0) best = i;
    }
  }
  return best;
}

Status PersonalizerService::Reward(EventId event, double reward) {
  QO_OBS_SPAN("reward");
  if (!event.valid() || event.value >= logged_events()) {
    QO_OBS_COUNT("bandit.reward_failures", 1);
    return Status::NotFound("unknown event id: never issued here");
  }
  if (event.value < log_base_) {
    QO_OBS_COUNT("bandit.reward_failures", 1);
    return Status::NotFound("event #" + std::to_string(event.value) +
                            " expired from the retention window");
  }
  LoggedEvent& ev = log_[event.value - log_base_];
  if (ev.has_reward) {
    QO_OBS_COUNT("bandit.reward_failures", 1);
    return Status::FailedPrecondition("event already rewarded: " +
                                      ev.event_id);
  }
  ev.has_reward = true;
  ev.reward = reward;
  ++rewarded_;
  QO_OBS_COUNT("bandit.reward_joins", 1);
  // Queue for the next incremental retrain; the features stay shared with
  // the event log (and the Recommender's cache) — no copy.
  pending_.push_back({ev.action_features[ev.chosen], reward, ev.probability});
  if (rewarded_ - rewarded_at_last_train_ >= config_.retrain_interval) {
    Retrain();
  }
  return Status::OK();
}

void PersonalizerService::Retrain() {
  QO_OBS_SPAN("retrain");
  if (!pending_.empty()) {
    model_.Train(pending_);
    ++live_writes_;
    DropSpare();
    QO_OBS_COUNT("bandit.examples_trained", pending_.size());
    // clear() keeps the batch buffer's capacity (bounded by the retrain
    // interval) so the next interval fills it without reallocating.
    pending_.clear();
  }
  QO_OBS_COUNT("bandit.retrains", 1);
  rewarded_at_last_train_ = rewarded_;
  CompactLog();
}

std::optional<PersonalizerService::TrainTicket>
PersonalizerService::BeginTrain() {
  std::vector<LoggedExample> batch = std::move(pending_);
  pending_.clear();
  QO_OBS_COUNT("bandit.examples_trained", batch.size());
  rewarded_at_last_train_ = rewarded_;
  CompactLog();
  if (batch.empty()) return std::nullopt;
  if (!spare_.has_value()) {
    QO_OBS_COUNT("bandit.model_copies", 1);
    return TrainTicket{std::move(batch), model_, live_writes_};
  }
  // The spare is the previous generation: model_ is spare_ trained on lag_,
  // so copying the weights lag_ indexes makes the two equal.
  spare_->SyncFrom(model_, lag_);
  TrainTicket ticket{std::move(batch), std::move(*spare_), live_writes_};
  DropSpare();
  return ticket;
}

void PersonalizerService::FinishTrain(TrainTicket ticket) {
  if (ticket.base_writes != live_writes_) {
    // Something else trained the live model after BeginTrain: the ticket's
    // model misses that training, so train the live model on the batch too.
    model_.Train(ticket.batch);
    ++live_writes_;
    DropSpare();
    return;
  }
  spare_.emplace(std::move(model_));
  model_ = std::move(ticket.model);
  lag_ = std::move(ticket.batch);
  ++live_writes_;
}

void PersonalizerService::DropSpare() {
  spare_.reset();
  lag_.clear();
}

void PersonalizerService::CompactLog() {
  if (config_.retention_window == 0) return;
  // The front of the window is always safe to drop: a rewarded event was
  // captured into pending_ at Reward time (training never rereads the log),
  // and an unrewarded event older than the window has exceeded the
  // reward-join horizon.
  while (log_.size() > config_.retention_window) {
    resident_ids_.erase(log_.front().event_id);
    log_.pop_front();
    ++log_base_;
    QO_OBS_COUNT("bandit.events_compacted", 1);
  }
}

Result<PersonalizerService::OfflineEvaluation>
PersonalizerService::EvaluateOffline() const {
  OfflineEvaluation eval;
  double ips_sum = 0.0;
  double logged_sum = 0.0;
  for (const LoggedEvent& ev : log_) {
    if (!ev.has_reward) continue;
    ++eval.events;
    logged_sum += ev.reward;
    // IPS: reward counts only when the target (greedy) policy agrees with
    // the logged action, re-weighted by the logging propensity.
    if (BestAction(ev, nullptr) == ev.chosen) {
      ips_sum += ev.reward / std::max(ev.probability, 1e-6);
    }
  }
  if (eval.events == 0) {
    return Status::FailedPrecondition("no rewarded events to evaluate");
  }
  eval.logged_average_reward = logged_sum / static_cast<double>(eval.events);
  eval.policy_ips_estimate = ips_sum / static_cast<double>(eval.events);
  return eval;
}

}  // namespace qo::bandit
