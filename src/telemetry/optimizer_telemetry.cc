#include "telemetry/optimizer_telemetry.h"

#include <cstdio>

namespace qo::telemetry {

std::string OptimizerTelemetry::ToString() const {
  char line[192];
  std::snprintf(line, sizeof(line),
                "cross-config memo: full_hits=%llu norm_hits=%llu "
                "misses=%llu hit_rate=%.1f%% symbols=%zu\n",
                static_cast<unsigned long long>(memo_full_hits),
                static_cast<unsigned long long>(memo_norm_hits),
                static_cast<unsigned long long>(memo_misses),
                100.0 * memo_hit_rate(), interned_symbols);
  return line;
}

void ExportSeries(const OptimizerTelemetry& t, obs::SeriesSink& sink) {
  sink.Add("optimizer.memo.full_hits", static_cast<double>(t.memo_full_hits));
  sink.Add("optimizer.memo.norm_hits", static_cast<double>(t.memo_norm_hits));
  sink.Add("optimizer.memo.misses", static_cast<double>(t.memo_misses));
  sink.Add("optimizer.memo.hit_rate", t.memo_hit_rate());
  sink.Add("optimizer.symbols", static_cast<double>(t.interned_symbols));
}

}  // namespace qo::telemetry
