// Measurement primitives for qobench: raw latency samples with exact
// quantiles, output digests, peak RSS, and the registry snapshot diff the
// traced run turns into per-layer numbers.
#ifndef QOBENCH_MEASURE_H_
#define QOBENCH_MEASURE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "obs/metrics.h"

namespace qobench {

/// Every latency of one kind of call, kept raw. Quantiles are exact
/// nearest-rank order statistics over all samples, never the registry's
/// log-bucket upper bounds.
class Samples {
 public:
  void Reserve(size_t n) { ns_.reserve(n); }
  void Add(uint64_t ns) {
    ns_.push_back(ns);
    sum_ns_ += ns;
  }
  void Append(const Samples& other);

  size_t count() const { return ns_.size(); }
  uint64_t sum_ns() const { return sum_ns_; }
  /// The ceil(q * n)-th smallest sample, in microseconds (0 when empty).
  /// Reorders the stored samples.
  double QuantileUs(double q);

 private:
  std::vector<uint64_t> ns_;
  uint64_t sum_ns_ = 0;
};

/// Order-sensitive FNV-1a digest (common/hash.h chaining) over the outputs a
/// workload produced.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(std::string_view s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = qo::kFnvOffsetBasis;
};

std::string Hex(uint64_t v);

/// Peak resident set size of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Registry deltas summed over measured phases. Collector-exported series
/// vanish with the object that exports them, so a workload that releases
/// state mid-run brackets each piece of work with Begin/End while that
/// state is still alive.
class RegistryDelta {
 public:
  void Begin() { before_ = qo::obs::Registry::Get().Snapshot(); }
  void End();

  double Series(std::string_view name) const;
  uint64_t SpanCount(std::string_view span) const;
  double SpanMs(std::string_view span) const;

 private:
  struct Span {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
  };
  qo::obs::MetricsSnapshot before_;
  std::map<std::string, double, std::less<>> series_;
  std::map<std::string, Span, std::less<>> spans_;
};

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

}  // namespace qobench

#endif  // QOBENCH_MEASURE_H_
