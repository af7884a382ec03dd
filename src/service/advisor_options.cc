#include "service/advisor_options.h"

#include <cstdlib>

namespace qo::service {

AdvisorOptions AdvisorOptions::FromEnv() {
  AdvisorOptions o;
  // The subsystem FromEnv constructors already parse their own knobs; the
  // point here is *when* they run — exactly once, all together, at the
  // moment the caller asked for the snapshot.
  o.runtime = runtime::RuntimeOptions::FromEnv();
  o.compile_cache = cache::CompileCacheOptions::FromEnv();
  o.guard = guard::GuardConfig::FromEnv();
  if (const char* ms = std::getenv("QO_SERVICE_RETRAIN_MS")) {
    o.retrain_period_ms = std::atoi(ms);
    if (o.retrain_period_ms < 0) o.retrain_period_ms = 0;
  }
  return o;
}

}  // namespace qo::service
