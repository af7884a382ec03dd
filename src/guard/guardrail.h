// Post-deployment guardrails for the steering loop (paper Secs. 2.4 and
// 4.5): the paper's safety story is that hints are single reversible rule
// flips — this module is the machinery that actually drives the reversal.
//
// Three cooperating pieces:
//   * HintWatchdog — after a hint activates for a template, compares the
//     template's per-day mean runtime against a rolling pre-hint baseline;
//     on a sustained measured regression (hysteresis + min-sample
//     thresholds) it calls SIS::RevertHint and quarantines the
//     (template, rule) pair so the pipeline cannot re-recommend it until a
//     cool-down expires.
//   * CircuitBreaker — day-windowed failure-rate breaker (per template and
//     global): when steering failures cross a threshold the breaker opens
//     and steering is disabled for a probation window, after which a
//     half-open probe decides between re-arming and re-opening.
//   * SteeringGuard — bundles the watchdog and the breakers.
//
// Every guardrail event is a "guard.*" registry counter, bumped where it
// happens (here and on the pipeline's commit path); GuardrailsText renders
// them from a registry snapshot.
//
// Everything here runs on the pipeline's serial path (day boundaries), so
// decisions are deterministic for any thread count by construction.
#ifndef QO_GUARD_GUARDRAIL_H_
#define QO_GUARD_GUARDRAIL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "guard/fault_injector.h"
#include "obs/metrics.h"
#include "sis/sis.h"
#include "telemetry/workload_view.h"

namespace qo::guard {

struct WatchdogConfig {
  /// Mean-runtime inflation vs the pre-hint baseline that counts as a
  /// regression (0.25 = +25%).
  double regress_threshold = 0.25;
  /// Minimum occurrences of the template on a day for that day to vote.
  size_t min_samples = 2;
  /// Consecutive regressing days required before the hint is reverted.
  int hysteresis_days = 2;
  /// Days a reverted (template, rule) pair stays quarantined.
  int quarantine_days = 14;
  /// Rolling window (days) of un-hinted means forming the baseline.
  size_t baseline_window = 8;
};

/// One watchdog decision, for day reports and goldens.
struct WatchdogAction {
  std::string template_name;
  int rule_id = 0;
  bool enable = false;
  int day = 0;
  /// Measured mean-runtime inflation vs baseline at revert time.
  double regression = 0.0;
};

/// Tracks per-template production runtimes and reverts regressing hints.
class HintWatchdog {
 public:
  explicit HintWatchdog(WatchdogConfig config = {}) : config_(config) {}

  /// Ingests one day of production telemetry (the same denormalized view
  /// the pipeline consumes). Reverts any hint whose template has regressed
  /// for `hysteresis_days` consecutive qualifying days and quarantines the
  /// (template, rule) pair ("guard.watchdog_reverts" /
  /// "guard.watchdog_quarantines"). Returns the reverts performed, in
  /// template order.
  std::vector<WatchdogAction> ObserveDay(const telemetry::WorkloadView& view,
                                         sis::StatsInsightService* sis);

  /// True while (template, rule) is inside its quarantine cool-down.
  bool Quarantined(const std::string& template_name, int rule_id,
                   int day) const;

  /// Quarantine entries still in cool-down on `day`.
  size_t ActiveQuarantines(int day) const;

  const WatchdogConfig& config() const { return config_; }

 private:
  struct TemplateState {
    /// Rolling per-day means observed while the template ran un-hinted.
    std::deque<double> baseline_days;
    double baseline_sum = 0.0;
    /// Hint currently under observation (-1: none).
    int hint_rule = -1;
    bool hint_enable = false;
    int consecutive_regressing = 0;
  };

  WatchdogConfig config_;
  std::map<std::string, TemplateState> templates_;
  /// (template, rule) -> first day the pair may be recommended again.
  std::map<std::pair<std::string, int>, int> quarantine_;
};

struct BreakerConfig {
  /// Failure fraction of a day's steering events that trips the breaker.
  double failure_rate_threshold = 0.5;
  /// Minimum events on the day before the rate is meaningful.
  size_t min_events = 8;
  /// Days steering stays disabled after a trip.
  int probation_days = 3;
};

/// Day-windowed failure-rate circuit breaker. States: closed (steering on),
/// open (disabled until a probation window passes), then a half-open probe
/// day whose outcome either re-arms (closed) or re-opens the breaker.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config = {}) : config_(config) {}

  /// False while the breaker is open and the probation window has not
  /// passed. The first allowed day after probation is the half-open probe.
  bool AllowSteering(int day) const {
    return !open_ || day >= open_until_day_;
  }

  /// Records one steering event of the current day.
  void Record(bool failure) {
    ++day_events_;
    if (failure) ++day_failures_;
  }

  /// Evaluates the day's failure rate and advances the state machine.
  /// Returns true when the breaker tripped (or re-tripped) on this day.
  bool CloseDay(int day);

  bool open() const { return open_; }
  int open_until_day() const { return open_until_day_; }
  uint64_t trips() const { return trips_; }

 private:
  BreakerConfig config_;
  bool open_ = false;
  int open_until_day_ = 0;
  size_t day_events_ = 0;
  size_t day_failures_ = 0;
  uint64_t trips_ = 0;
};

/// Pipeline-facing guardrail configuration. Disabled by default so the
/// existing pipelines and figure benches are bit-for-bit unaffected; the
/// chaos tests and the daily_pipeline demo turn it on. QO_GUARD and the
/// QO_FAULT_* knobs reach it only through service::AdvisorOptions::FromEnv.
struct GuardConfig {
  /// Master switch for watchdog + breakers + flight retry.
  bool enabled = false;
  /// Fault-injection probabilities for the pipeline's boundaries (inert by
  /// default; independent of `enabled` so plain pipelines can be
  /// chaos-tested without guardrails and vice versa).
  FaultConfig faults;
  WatchdogConfig watchdog;
  BreakerConfig global_breaker;
  /// Per-template breakers see few events per day; trip them on a higher
  /// rate over a smaller minimum.
  BreakerConfig template_breaker{.failure_rate_threshold = 0.75,
                                 .min_events = 3,
                                 .probation_days = 5};
  /// Graceful degradation: re-flight transient flight failures up to this
  /// many times (deterministic fresh salts) before giving up on the day.
  int flight_max_retries = 2;
};

/// The pipeline's guardrail bundle: watchdog + breakers.
class SteeringGuard {
 public:
  explicit SteeringGuard(GuardConfig config = {})
      : config_(config),
        watchdog_(config.watchdog),
        global_breaker_(config.global_breaker) {}

  bool enabled() const { return config_.enabled; }
  const GuardConfig& config() const { return config_; }
  HintWatchdog& watchdog() { return watchdog_; }
  const HintWatchdog& watchdog() const { return watchdog_; }

  /// Global breaker state for the day.
  bool SteeringAllowed(int day) const {
    return global_breaker_.AllowSteering(day);
  }
  /// Per-template breaker state for the day (templates with no breaker yet
  /// are allowed).
  bool TemplateAllowed(const std::string& template_name, int day) const;

  /// Records one steering event (a flight result, a hinted-compile
  /// fallback, ...) against both breaker scopes.
  void RecordSteeringEvent(const std::string& template_name, bool failure);

  /// Day-boundary breaker evaluation; counts disabled days and trips.
  void CloseDay(int day);

 private:
  GuardConfig config_;
  HintWatchdog watchdog_;
  CircuitBreaker global_breaker_;
  std::map<std::string, CircuitBreaker> template_breakers_;
};

/// The "guardrails:" block — watchdog, breakers, degradation and injected
/// faults — rendered from the snapshot's "guard.*" series.
std::string GuardrailsText(const obs::MetricsSnapshot& snap);

}  // namespace qo::guard

#endif  // QO_GUARD_GUARDRAIL_H_
