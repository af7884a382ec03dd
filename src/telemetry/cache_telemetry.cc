#include "telemetry/cache_telemetry.h"

#include <cstdio>

namespace qo::telemetry {

namespace {

void AppendLevel(std::string* out, const char* name, const CacheCounters& c) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "  %-12s hits=%llu misses=%llu evictions=%llu "
                "entries=%zu/%zu hit_rate=%.1f%%\n",
                name, static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.misses),
                static_cast<unsigned long long>(c.evictions), c.entries,
                c.capacity, 100.0 * c.hit_rate());
  *out += line;
}

}  // namespace

std::string CompileCacheTelemetry::ToString() const {
  std::string out = "compile cache:\n";
  AppendLevel(&out, "front_end", front_end);
  AppendLevel(&out, "compilations", compilations);
  return out;
}

namespace {

void ExportLevel(const char* prefix, const CacheCounters& c,
                 obs::SeriesSink& sink) {
  std::string base(prefix);
  sink.Add(base + ".hits", static_cast<double>(c.hits));
  sink.Add(base + ".misses", static_cast<double>(c.misses));
  sink.Add(base + ".evictions", static_cast<double>(c.evictions));
  sink.Add(base + ".entries", static_cast<double>(c.entries));
  sink.Add(base + ".capacity", static_cast<double>(c.capacity));
  sink.Add(base + ".hit_rate", c.hit_rate());
}

}  // namespace

void ExportSeries(const CompileCacheTelemetry& t, obs::SeriesSink& sink) {
  ExportLevel("cache.front_end", t.front_end, sink);
  ExportLevel("cache.compilations", t.compilations, sink);
}

}  // namespace qo::telemetry
