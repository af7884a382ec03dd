#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace qobench {

void Samples::Append(const Samples& other) {
  ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  sum_ns_ += other.sum_ns_;
}

double Samples::QuantileUs(double q) {
  if (ns_.empty()) return 0.0;
  const size_t n = ns_.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  auto nth = ns_.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(ns_.begin(), nth, ns_.end());
  return static_cast<double>(*nth) / 1e3;
}

void Digest::Add(uint64_t v) { h_ = qo::HashU64(v, h_); }

void Digest::Add(double v) { h_ = qo::HashDouble(v, h_); }

void Digest::Add(std::string_view s) {
  h_ = qo::HashBytes(s.data(), s.size(), h_);
  Add(static_cast<uint64_t>(s.size()));
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void RegistryDelta::End() {
  const qo::obs::MetricsSnapshot after = qo::obs::Registry::Get().Snapshot();
  for (const auto& [name, value] : after.series) {
    series_[name] += value - before_.SeriesValue(name);
  }
  constexpr std::string_view kSpanPrefix = "span.";
  for (const auto& [name, hist] : after.histograms) {
    if (name.rfind(kSpanPrefix, 0) != 0) continue;
    const qo::obs::HistogramSnapshot* prev = before_.FindHistogram(name);
    Span& span = spans_[name.substr(kSpanPrefix.size())];
    span.count += hist.total - (prev != nullptr ? prev->total : 0);
    span.sum_ns += hist.sum - (prev != nullptr ? prev->sum : 0);
  }
}

double RegistryDelta::Series(std::string_view name) const {
  auto it = series_.find(name);
  return it != series_.end() ? it->second : 0.0;
}

uint64_t RegistryDelta::SpanCount(std::string_view span) const {
  auto it = spans_.find(span);
  return it != spans_.end() ? it->second.count : 0;
}

double RegistryDelta::SpanMs(std::string_view span) const {
  auto it = spans_.find(span);
  return it != spans_.end() ? static_cast<double>(it->second.sum_ns) / 1e6
                            : 0.0;
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace qobench
