#include "guard/guardrail.h"

#include <cstdio>
#include <cstdlib>

namespace qo::guard {

namespace {

/// Per-day per-template mean pn_hours, accumulated in row order (the view's
/// rows commit in job order, so this map is identical for any thread count).
struct DayStats {
  double sum = 0.0;
  size_t count = 0;
  double mean() const { return count == 0 ? 0.0 : sum / count; }
};

}  // namespace

std::vector<WatchdogAction> HintWatchdog::ObserveDay(
    const telemetry::WorkloadView& view, sis::StatsInsightService* sis) {
  std::vector<WatchdogAction> actions;
  std::map<std::string, DayStats> day_stats;
  for (const auto& row : view.rows) {
    DayStats& s = day_stats[row.normalized_job_name];
    s.sum += row.pn_hours;
    ++s.count;
  }

  for (const auto& [name, stats] : day_stats) {
    TemplateState& state = templates_[name];
    auto hint = sis->LookupHint(name);

    if (!hint.has_value()) {
      // Un-hinted day: extend the rolling baseline, clear any observation.
      state.hint_rule = -1;
      state.consecutive_regressing = 0;
      state.baseline_days.push_back(stats.mean());
      state.baseline_sum += stats.mean();
      if (state.baseline_days.size() > config_.baseline_window) {
        state.baseline_sum -= state.baseline_days.front();
        state.baseline_days.pop_front();
      }
      continue;
    }

    if (state.hint_rule != hint->rule_id) {
      // A new hint activated for this template; the baseline stays frozen
      // at its pre-hint state and the hysteresis counter restarts.
      state.hint_rule = hint->rule_id;
      state.hint_enable = hint->enable;
      state.consecutive_regressing = 0;
    }
    if (state.baseline_days.empty()) continue;  // nothing to compare against
    if (stats.count < config_.min_samples) continue;  // day does not vote

    double baseline =
        state.baseline_sum / static_cast<double>(state.baseline_days.size());
    double regression =
        baseline > 0.0 ? stats.mean() / baseline - 1.0 : 0.0;
    if (regression > config_.regress_threshold) {
      ++state.consecutive_regressing;
    } else {
      state.consecutive_regressing = 0;
    }
    if (state.consecutive_regressing < config_.hysteresis_days) continue;

    // Sustained regression: revert the hint, quarantine the pair.
    if (sis->RevertHint(name).ok()) {
      QO_OBS_COUNT("guard.watchdog_reverts", 1);
      auto key = std::make_pair(name, state.hint_rule);
      if (quarantine_.emplace(key, 0).second) {
        QO_OBS_COUNT("guard.watchdog_quarantines", 1);
      }
      quarantine_[key] = view.day + config_.quarantine_days;
      actions.push_back({name, state.hint_rule, state.hint_enable, view.day,
                         regression});
    }
    state.hint_rule = -1;
    state.consecutive_regressing = 0;
  }
  return actions;
}

bool HintWatchdog::Quarantined(const std::string& template_name, int rule_id,
                               int day) const {
  auto it = quarantine_.find(std::make_pair(template_name, rule_id));
  return it != quarantine_.end() && day < it->second;
}

size_t HintWatchdog::ActiveQuarantines(int day) const {
  size_t n = 0;
  for (const auto& [key, until] : quarantine_) {
    if (day < until) ++n;
  }
  return n;
}

bool CircuitBreaker::CloseDay(int day) {
  const size_t events = day_events_;
  const size_t failures = day_failures_;
  day_events_ = 0;
  day_failures_ = 0;
  const double rate =
      events == 0 ? 0.0
                  : static_cast<double>(failures) / static_cast<double>(events);

  if (!open_) {
    if (events >= config_.min_events &&
        rate >= config_.failure_rate_threshold) {
      open_ = true;
      open_until_day_ = day + 1 + config_.probation_days;
      ++trips_;
      return true;
    }
    return false;
  }
  if (day < open_until_day_) return false;  // probation: nothing ran today
  // Half-open probe day. A single bad probe is enough to re-open; any
  // non-failing traffic re-arms the breaker. No traffic leaves it half-open.
  if (events > 0 && rate >= config_.failure_rate_threshold) {
    open_until_day_ = day + 1 + config_.probation_days;
    ++trips_;
    return true;
  }
  if (events > 0) open_ = false;
  return false;
}

GuardConfig GuardConfig::FromEnv() {
  GuardConfig config;
  const char* raw = std::getenv("QO_GUARD");
  config.enabled = raw != nullptr && raw[0] == '1' && raw[1] == '\0';
  config.faults = FaultConfig::FromEnv();
  return config;
}

bool SteeringGuard::TemplateAllowed(const std::string& template_name,
                                    int day) const {
  auto it = template_breakers_.find(template_name);
  return it == template_breakers_.end() || it->second.AllowSteering(day);
}

void SteeringGuard::RecordSteeringEvent(const std::string& template_name,
                                        bool failure) {
  global_breaker_.Record(failure);
  auto it =
      template_breakers_.try_emplace(template_name, config_.template_breaker)
          .first;
  it->second.Record(failure);
}

void SteeringGuard::CloseDay(int day) {
  if (!global_breaker_.AllowSteering(day)) {
    QO_OBS_COUNT("guard.steering_disabled_days", 1);
  }
  if (global_breaker_.CloseDay(day)) {
    QO_OBS_COUNT("guard.breaker_trips_global", 1);
  }
  for (auto& [name, breaker] : template_breakers_) {
    if (breaker.CloseDay(day)) QO_OBS_COUNT("guard.breaker_trips_template", 1);
  }
}

std::string GuardrailsText(const obs::MetricsSnapshot& snap) {
  auto count = [&](const char* name) {
    return static_cast<unsigned long long>(snap.SeriesValue(name));
  };
  char text[512];
  std::snprintf(
      text, sizeof(text),
      "guardrails:\n"
      "  watchdog: reverts=%llu quarantines=%llu blocked=%llu\n"
      "  breakers: global_trips=%llu template_trips=%llu disabled_days=%llu "
      "template_blocked=%llu\n"
      "  degradation: retries=%llu recoveries=%llu hint_files_rejected=%llu\n"
      "  faults: compile=%llu flight=%llu hint_file=%llu reward=%llu "
      "telemetry=%llu\n",
      count("guard.watchdog_reverts"), count("guard.watchdog_quarantines"),
      count("guard.quarantine_blocked"), count("guard.breaker_trips_global"),
      count("guard.breaker_trips_template"),
      count("guard.steering_disabled_days"), count("guard.template_blocked"),
      count("guard.flight_retries"), count("guard.flight_recoveries"),
      count("guard.hint_files_rejected"), count("guard.faults_compile"),
      count("guard.faults_flight"), count("guard.faults_hint_file"),
      count("guard.faults_reward_drop"), count("guard.faults_telemetry_drop"));
  return text;
}

}  // namespace qo::guard
