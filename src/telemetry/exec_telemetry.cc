#include "telemetry/exec_telemetry.h"

#include <cstdio>

namespace qo::telemetry {

std::string ExecProfileTelemetry::ToString() const {
  char line[192];
  std::snprintf(
      line, sizeof(line),
      "exec profiles:\n"
      "  prepares=%llu prepared_runs=%llu "
      "slot_hits=%llu slot_misses=%llu reuse_rate=%.1f%%\n",
      static_cast<unsigned long long>(prepares),
      static_cast<unsigned long long>(prepared_runs),
      static_cast<unsigned long long>(profile_hits),
      static_cast<unsigned long long>(profile_misses), 100.0 * reuse_rate());
  return line;
}

void ExportSeries(const ExecProfileTelemetry& t, obs::SeriesSink& sink) {
  sink.Add("exec.prepares", static_cast<double>(t.prepares));
  sink.Add("exec.prepared_runs", static_cast<double>(t.prepared_runs));
  sink.Add("exec.profile_hits", static_cast<double>(t.profile_hits));
  sink.Add("exec.profile_misses", static_cast<double>(t.profile_misses));
  sink.Add("exec.reuse_rate", t.reuse_rate());
}

}  // namespace qo::telemetry
