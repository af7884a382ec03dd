// Linear contextual-bandit model with importance-weighted SGD training.
//
// Scores canonical (shared, action) combined vectors with a hashed linear
// model; learns from logged (features, reward, logging-probability) triples
// using inverse propensity scoring — the standard off-policy reduction to
// regression (paper Sec. 3.1, [2, 40]).
//
// All features are canonical SparseVectors (sorted, coalesced, norm
// cached), so Score and TrainEpoch are branch-light linear sweeps that
// touch each weight exactly once per example: L2 decay applies once per
// weight and the normalized-LMS bound uses the true coalesced norm.
#ifndef QO_BANDIT_CB_MODEL_H_
#define QO_BANDIT_CB_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bandit/features.h"

namespace qo::bandit {

/// One logged interaction, ready for training. Features are shared with the
/// Personalizer's event log and the Recommender's per-job combined-feature
/// cache — building an example never deep-copies a feature vector.
struct LoggedExample {
  std::shared_ptr<const SparseVector> features;  ///< combined features
  double reward = 0.0;
  double probability = 1.0;  ///< probability the logging policy chose this
};

struct CbModelConfig {
  double learning_rate = 0.05;
  double l2 = 1e-6;
  int epochs = 3;
  /// IPS weights are clipped at this value to bound variance.
  double max_importance_weight = 10.0;
};

/// The hashed linear scorer.
class CbModel {
 public:
  explicit CbModel(CbModelConfig config = {});

  /// Predicted reward for a combined feature vector.
  double Score(const SparseVector& features) const;

  /// Predicted rewards for every arm of a rank request at once. Arms are
  /// processed in lane blocks of four: the weight gathers for four arms are
  /// packed column-major and swept by the dispatched dot4 kernel up to the
  /// shortest arm, then each lane finishes its tail scalar — continuing the
  /// same sequential accumulation — so every returned score is bit-identical
  /// to calling Score() on that arm alone. Null arms score 0.0.
  std::vector<double> ScoreBatch(
      const std::vector<std::shared_ptr<const SparseVector>>& arms) const;

  /// One SGD pass over the examples with IPS weighting (examples with low
  /// logging probability get up-weighted, subject to clipping). Examples
  /// with null features are skipped.
  void TrainEpoch(const std::vector<LoggedExample>& examples);

  /// Runs config.epochs passes.
  void Train(const std::vector<LoggedExample>& examples);

  /// Catches this model up to `src`, given that `src` is this model trained
  /// on `batch`: copies only the weights the batch's features index, plus
  /// the update count. Exact, because TrainEpoch writes no other weight —
  /// afterwards both models score every vector bit-identically. Costs
  /// O(batch features) instead of a full kDim copy.
  void SyncFrom(const CbModel& src, const std::vector<LoggedExample>& batch);

  size_t updates() const { return updates_; }
  const std::vector<float>& weights() const { return weights_; }
  const CbModelConfig& config() const { return config_; }

 private:
  CbModelConfig config_;
  std::vector<float> weights_;
  size_t updates_ = 0;
};

}  // namespace qo::bandit

#endif  // QO_BANDIT_CB_MODEL_H_
