#include "guard/fault_injector.h"

#include "common/hash.h"

namespace qo::guard {

namespace {

/// hash(seed, site, day, key) -> uniform double in [0, 1).
double UniformDraw(uint64_t seed, FaultSite site, int day, uint64_t key) {
  uint64_t h = HashU64(seed, kFnvOffsetBasis);
  h = HashU64(static_cast<uint64_t>(site), h);
  h = HashU64(static_cast<uint64_t>(day), h);
  h = HashU64(key, h);
  return static_cast<double>(MixHash(h) >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultSiteToString(FaultSite site) {
  switch (site) {
    case FaultSite::kCompile:
      return "compile";
    case FaultSite::kFlightFailure:
      return "flight_failure";
    case FaultSite::kFlightTimeout:
      return "flight_timeout";
    case FaultSite::kHintFile:
      return "hint_file";
    case FaultSite::kRewardJoin:
      return "reward_join";
    case FaultSite::kTelemetry:
      return "telemetry";
    case FaultSite::kHintRegression:
      return "hint_regression";
  }
  return "unknown";
}

double FaultInjector::SiteProb(FaultSite site) const {
  switch (site) {
    case FaultSite::kCompile:
      return config_.compile_error_prob;
    case FaultSite::kFlightFailure:
      return config_.flight_failure_prob;
    case FaultSite::kFlightTimeout:
      return config_.flight_timeout_prob;
    case FaultSite::kHintFile:
      return config_.hint_corrupt_prob;
    case FaultSite::kRewardJoin:
      return config_.reward_drop_prob;
    case FaultSite::kTelemetry:
      return config_.telemetry_drop_prob;
    case FaultSite::kHintRegression:
      return config_.hint_regression_prob;
  }
  return 0.0;
}

bool FaultInjector::ShouldInject(FaultSite site, int day, uint64_t key) const {
  double p = SiteProb(site);
  if (p <= 0.0) return false;
  return UniformDraw(config_.seed, site, day, key) < p;
}

bool FaultInjector::ShouldInject(FaultSite site, int day,
                                 const std::string& key) const {
  if (SiteProb(site) <= 0.0) return false;
  return ShouldInject(site, day, HashString(key));
}

std::string FaultInjector::CorruptHintText(const std::string& text,
                                           int day) const {
  uint64_t h = MixHash(HashU64(static_cast<uint64_t>(day),
                               HashU64(config_.seed, kFnvOffsetBasis)));
  switch (h % 4) {
    case 0:
      // Truncate mid-row: chop the trailing part of the file.
      return text.substr(0, text.size() - text.size() / 3 - 1);
    case 1:
      // Garbage line spliced into the body.
      return text + "!!corrupt;;garbage row\n";
    case 2: {
      // Out-of-range rule id on the first data row.
      auto nl = text.find('\n');
      if (nl == std::string::npos || nl + 1 >= text.size()) return text + ",";
      auto c1 = text.find(',', nl + 1);
      if (c1 == std::string::npos) return text + ",";
      return text.substr(0, c1 + 1) + "9999" +
             text.substr(text.find(',', c1 + 1));
    }
    default: {
      // Duplicate the first data row at the end of the file.
      auto nl = text.find('\n');
      if (nl == std::string::npos || nl + 1 >= text.size()) return text + ",";
      auto end = text.find('\n', nl + 1);
      if (end == std::string::npos) return text + ",";
      return text + text.substr(nl + 1, end - nl);
    }
  }
}

}  // namespace qo::guard
