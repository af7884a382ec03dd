#include "service/advisor_options.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace qo::service {

namespace {

/// A probability knob: unset, empty, unparsable, negative and non-finite
/// values keep `fallback`; values above 1 clamp to 1.
double EnvProb(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  double v = std::strtod(raw, &end);
  if (end == raw || !std::isfinite(v) || v < 0.0) return fallback;
  return v > 1.0 ? 1.0 : v;
}

}  // namespace

AdvisorOptions AdvisorOptions::FromEnv() {
  AdvisorOptions o;
  if (const char* raw = std::getenv("QO_THREADS")) {
    int threads = std::atoi(raw);
    if (threads >= 1) o.runtime.num_threads = threads;
  }
  const char* guard_on = std::getenv("QO_GUARD");
  o.guard.enabled = guard_on != nullptr && std::strcmp(guard_on, "1") == 0;
  guard::FaultConfig& f = o.guard.faults;
  if (const char* raw = std::getenv("QO_FAULT_SEED")) {
    f.seed = std::strtoull(raw, nullptr, 10);
  }
  f.compile_error_prob = EnvProb("QO_FAULT_COMPILE", f.compile_error_prob);
  f.flight_failure_prob =
      EnvProb("QO_FAULT_FLIGHT_FAILURE", f.flight_failure_prob);
  f.flight_timeout_prob =
      EnvProb("QO_FAULT_FLIGHT_TIMEOUT", f.flight_timeout_prob);
  f.hint_corrupt_prob = EnvProb("QO_FAULT_HINT_CORRUPT", f.hint_corrupt_prob);
  f.reward_drop_prob = EnvProb("QO_FAULT_REWARD_DROP", f.reward_drop_prob);
  f.telemetry_drop_prob =
      EnvProb("QO_FAULT_TELEMETRY_DROP", f.telemetry_drop_prob);
  f.hint_regression_prob =
      EnvProb("QO_FAULT_HINT_REGRESSION", f.hint_regression_prob);
  if (const char* raw = std::getenv("QO_FAULT_HINT_REGRESSION_FACTOR")) {
    char* end = nullptr;
    double v = std::strtod(raw, &end);
    if (end != raw && std::isfinite(v) && v >= 1.0) {
      f.hint_regression_factor = v;
    }
  }
  if (const char* ms = std::getenv("QO_SERVICE_RETRAIN_MS")) {
    o.retrain_period_ms = std::atoi(ms);
    if (o.retrain_period_ms < 0) o.retrain_period_ms = 0;
  }
  return o;
}

}  // namespace qo::service
