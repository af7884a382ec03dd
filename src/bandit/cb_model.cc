#include "bandit/cb_model.h"

#include <algorithm>

#include "common/kernels/kernels.h"

namespace qo::bandit {

CbModel::CbModel(CbModelConfig config) : config_(config) {
  weights_.assign(FeatureVector::kDim, 0.0f);
}

double CbModel::Score(const SparseVector& features) const {
  const std::vector<uint32_t>& idx = features.indices();
  const std::vector<double>& val = features.values();
  double s = 0.0;
  for (size_t k = 0; k < idx.size(); ++k) {
    s += static_cast<double>(weights_[idx[k]]) * val[k];
  }
  return s;
}

std::vector<double> CbModel::ScoreBatch(
    const std::vector<std::shared_ptr<const SparseVector>>& arms) const {
  using kernels::kLanes;
  std::vector<double> scores(arms.size(), 0.0);
  const kernels::KernelTable& kt = kernels::Active();
  // Per-thread gather scratch, grown to the widest block seen: four
  // lane-contiguous weight rows. The value rows need no packing at all —
  // each arm's dense value column is already a contiguous row.
  thread_local std::vector<double> gathered_weights;

  size_t block = 0;
  for (; block + kLanes <= arms.size(); block += kLanes) {
    const SparseVector* lane_arm[kLanes];
    size_t min_n = SIZE_MAX;
    bool all_present = true;
    for (size_t j = 0; j < kLanes; ++j) {
      lane_arm[j] = arms[block + j].get();
      if (lane_arm[j] == nullptr) {
        all_present = false;
        break;
      }
      min_n = std::min(min_n, lane_arm[j]->size());
    }
    if (!all_present) {
      for (size_t j = 0; j < kLanes; ++j) {
        const SparseVector* a = arms[block + j].get();
        scores[block + j] = a != nullptr ? Score(*a) : 0.0;
      }
      continue;
    }
    // Gather the common prefix (up to the shortest arm) of each lane's
    // weights into a contiguous row; the kernel transposes on load, so the
    // values go in as the arms' own columns with zero copying.
    if (gathered_weights.size() < min_n * kLanes) {
      gathered_weights.resize(min_n * kLanes);
    }
    const double* v_rows[kLanes];
    const double* w_rows[kLanes];
    for (size_t j = 0; j < kLanes; ++j) {
      const std::vector<uint32_t>& idx = lane_arm[j]->indices();
      double* row = gathered_weights.data() + j * min_n;
      for (size_t i = 0; i < min_n; ++i) {
        row[i] = static_cast<double>(weights_[idx[i]]);
      }
      v_rows[j] = lane_arm[j]->values().data();
      w_rows[j] = row;
    }
    double acc[kLanes] = {0.0, 0.0, 0.0, 0.0};
    kt.dot4(v_rows, w_rows, min_n, acc);
    // Each lane's tail continues the same sequential accumulation, so the
    // final sum has the exact Score() operation order.
    for (size_t j = 0; j < kLanes; ++j) {
      const std::vector<uint32_t>& idx = lane_arm[j]->indices();
      const std::vector<double>& val = lane_arm[j]->values();
      double s = acc[j];
      for (size_t i = min_n; i < idx.size(); ++i) {
        s += static_cast<double>(weights_[idx[i]]) * val[i];
      }
      scores[block + j] = s;
    }
  }
  for (; block < arms.size(); ++block) {
    const SparseVector* a = arms[block].get();
    scores[block] = a != nullptr ? Score(*a) : 0.0;
  }
  return scores;
}

void CbModel::TrainEpoch(const std::vector<LoggedExample>& examples) {
  // The per-example L2 decay factor is constant across the epoch; the
  // canonical features guarantee each weight appears once per example, so
  // applying it inside the update sweep decays each touched weight exactly
  // once per example.
  const double decay = 1.0 - config_.learning_rate * config_.l2;
  for (const LoggedExample& ex : examples) {
    if (ex.features == nullptr) continue;
    const SparseVector& features = *ex.features;
    double iw = 1.0 / std::max(ex.probability, 1e-6);
    iw = std::min(iw, config_.max_importance_weight);
    double pred = Score(features);
    // Normalized LMS: scale by the squared feature norm (cached at
    // canonicalization) so one update moves the prediction by at most
    // (learning_rate * iw) of the error, regardless of how many hashed
    // features are active.
    double grad_scale = config_.learning_rate * iw * (ex.reward - pred) /
                        std::max(1.0, features.norm_sq());
    const std::vector<uint32_t>& idx = features.indices();
    const std::vector<double>& val = features.values();
    for (size_t k = 0; k < idx.size(); ++k) {
      float& w = weights_[idx[k]];
      w = static_cast<float>(w * decay + grad_scale * val[k]);
    }
    ++updates_;
  }
}

void CbModel::Train(const std::vector<LoggedExample>& examples) {
  for (int e = 0; e < config_.epochs; ++e) TrainEpoch(examples);
}

void CbModel::SyncFrom(const CbModel& src,
                       const std::vector<LoggedExample>& batch) {
  for (const LoggedExample& ex : batch) {
    if (ex.features == nullptr) continue;
    for (uint32_t i : ex.features->indices()) weights_[i] = src.weights_[i];
  }
  updates_ = src.updates_;
}

}  // namespace qo::bandit
