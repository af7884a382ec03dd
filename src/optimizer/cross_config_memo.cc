#include "optimizer/cross_config_memo.h"

#include <utility>

#include "obs/metrics.h"

namespace qo::opt {

bool CrossConfigMemo::FindFull(
    const BitVector256& config, Status* status,
    std::shared_ptr<const CompilationOutput>* output) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const FullEntry& e : full_) {
    if ((config & e.consulted) == e.values) {
      *status = e.status;
      if (e.status.ok()) *output = e.output;
      return true;
    }
  }
  return false;
}

bool CrossConfigMemo::FindNorm(const BitVector256& config,
                               NormalizedPlan* plan,
                               BitVector256* norm_consulted) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const NormEntry& e : norm_) {
    if ((config & e.consulted) == e.values) {
      if (norm_consulted != nullptr) *norm_consulted = e.consulted;
      *plan = e.plan;
      return true;
    }
  }
  return false;
}

void CrossConfigMemo::InsertFull(
    const BitVector256& consulted, const BitVector256& config,
    const Status& status, std::shared_ptr<const CompilationOutput> output) {
  BitVector256 values = config & consulted;
  std::lock_guard<std::mutex> lock(mu_);
  for (const FullEntry& e : full_) {
    // An existing entry already covering this config makes the new one
    // redundant (both replay to the same output).
    if ((config & e.consulted) == e.values) return;
  }
  if (full_.size() >= kMaxFullEntries) {
    QO_OBS_COUNT("optimizer.memo.full_dropped", 1);
    return;
  }
  FullEntry e;
  e.consulted = consulted;
  e.values = values;
  e.status = status;
  if (status.ok()) e.output = std::move(output);
  full_.push_back(std::move(e));
}

void CrossConfigMemo::InsertNorm(const BitVector256& consulted,
                                 const BitVector256& config,
                                 NormalizedPlan plan) {
  BitVector256 values = config & consulted;
  std::lock_guard<std::mutex> lock(mu_);
  for (const NormEntry& e : norm_) {
    if ((config & e.consulted) == e.values) return;
  }
  if (norm_.size() >= kMaxNormEntries) {
    QO_OBS_COUNT("optimizer.memo.norm_dropped", 1);
    return;
  }
  NormEntry e;
  e.consulted = consulted;
  e.values = values;
  e.plan = std::move(plan);
  norm_.push_back(std::move(e));
}

}  // namespace qo::opt
