// Deterministic fault injection for chaos-testing the steering pipeline
// (paper Sec. 4.5: the deployment had to survive compile errors, flight
// failures, corrupt hint files and telemetry gaps without regressing
// production).
//
// Every injection decision is a pure function of (seed, site, day, key):
// no draw depends on call order or thread count, so a chaos run is
// byte-identical at QO_THREADS=1 and 64, and two runs with the same seed
// make exactly the same failures happen at exactly the same places.
//
// The injector is inert by default: armed() is true only when at least one
// site probability is positive, and callers skip the hash entirely when it
// is not. Setting QO_FAULT_SEED alone therefore changes nothing — the CI
// chaos leg relies on that to assert arming-without-probabilities keeps the
// figure benches byte-identical.
#ifndef QO_GUARD_FAULT_INJECTOR_H_
#define QO_GUARD_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>

namespace qo::guard {

/// Pipeline boundaries where faults can be injected.
enum class FaultSite : uint32_t {
  kCompile = 1,         ///< steered / flip recompilation errors
  kFlightFailure = 2,   ///< transient flight environment failures
  kFlightTimeout = 3,   ///< per-job flight timeouts (timeout storms)
  kHintFile = 4,        ///< corrupt / truncated SIS hint files
  kRewardJoin = 5,      ///< dropped bandit reward joins
  kTelemetry = 6,       ///< stale telemetry: view rows that never arrive
  kHintRegression = 7,  ///< hints that regress in production (watchdog prey)
};

const char* FaultSiteToString(FaultSite site);

/// Per-site injection probabilities. All default to 0 (off); the QO_FAULT_*
/// knobs reach them through service::AdvisorOptions::FromEnv.
struct FaultConfig {
  uint64_t seed = 0;
  double compile_error_prob = 0.0;
  double flight_failure_prob = 0.0;
  double flight_timeout_prob = 0.0;
  double hint_corrupt_prob = 0.0;
  double reward_drop_prob = 0.0;
  double telemetry_drop_prob = 0.0;
  /// Fraction of templates whose hints secretly regress in production. The
  /// decision is sticky per template (day-independent), modeling a hint
  /// that is genuinely bad on the production distribution rather than a
  /// transient blip — the scenario the watchdog exists for.
  double hint_regression_prob = 0.0;
  /// Runtime inflation applied to steered runs of regressing templates.
  double hint_regression_factor = 1.5;

  /// True when any site can fire.
  bool armed() const {
    return compile_error_prob > 0.0 || flight_failure_prob > 0.0 ||
           flight_timeout_prob > 0.0 || hint_corrupt_prob > 0.0 ||
           reward_drop_prob > 0.0 || telemetry_drop_prob > 0.0 ||
           hint_regression_prob > 0.0;
  }
};

/// Stateless decision oracle: subsystems ask it whether a given fault fires
/// at a given (site, day, key) and count what they actually acted on at
/// their own serial commit points.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config = {}) : config_(config) {}

  const FaultConfig& config() const { return config_; }
  bool armed() const { return config_.armed(); }

  /// Pure: depends only on (config.seed, site, day, key). Thread-safe.
  bool ShouldInject(FaultSite site, int day, uint64_t key) const;
  bool ShouldInject(FaultSite site, int day, const std::string& key) const;

  /// Deterministically mangles a serialized hint file (truncation, garbage
  /// rows, out-of-range rule ids, duplicated templates — the corpus
  /// HintFile::Parse must reject). The mutation mode rotates with `day`.
  std::string CorruptHintText(const std::string& text, int day) const;

 private:
  double SiteProb(FaultSite site) const;

  FaultConfig config_;
};

}  // namespace qo::guard

#endif  // QO_GUARD_FAULT_INJECTOR_H_
