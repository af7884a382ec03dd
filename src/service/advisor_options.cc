#include "service/advisor_options.h"

#include <cstdlib>

namespace qo::service {

namespace {

std::string EnvString(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}

}  // namespace

AdvisorOptions AdvisorOptions::FromEnv() {
  AdvisorOptions o;
  // The subsystem FromEnv constructors already parse their own knobs; the
  // point here is *when* they run — exactly once, all together, at the
  // moment the caller asked for the snapshot.
  o.runtime = runtime::RuntimeOptions::FromEnv();
  o.compile_cache = cache::CompileCacheOptions::FromEnv();
  o.guard = guard::GuardConfig::FromEnv();
  const char* metrics = std::getenv("QO_METRICS");
  o.obs.metrics = metrics == nullptr || std::string(metrics) != "0";
  o.obs.report_path = EnvString("QO_OBS_REPORT");
  o.obs.label = EnvString("QO_OBS_LABEL");
  o.obs.trace_path = EnvString("QO_TRACE");
  if (const char* sample = std::getenv("QO_OBS_SAMPLE")) {
    o.obs.span_sample_every = std::atoi(sample);
    if (o.obs.span_sample_every < 1) o.obs.span_sample_every = 1;
  }
  const char* simd = std::getenv("QO_SIMD");
  o.obs.simd = simd == nullptr || std::string(simd) != "0";
  if (const char* ms = std::getenv("QO_SERVICE_RETRAIN_MS")) {
    o.retrain_period_ms = std::atoi(ms);
    if (o.retrain_period_ms < 0) o.retrain_period_ms = 0;
  }
  return o;
}

}  // namespace qo::service
