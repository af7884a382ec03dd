// Contextual bandit tests: featurization, the canonical sparse
// representation, model learning, the Personalizer service contract
// (including shared combined features, incremental retraining and log
// retention), and offline (IPS) evaluation.
#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>

#include "bandit/cb_model.h"
#include "bandit/features.h"
#include "bandit/personalizer.h"

#include "common/kernels/kernels.h"
#include "obs/metrics.h"
#include "optimizer/rules.h"

namespace qo::bandit {
namespace {

/// The registry series `name` (0 before its first event).
double Series(const char* name) {
  return obs::Registry::Get().Snapshot().SeriesValue(name);
}

/// True when entries are strictly increasing by index (sorted + deduped).
bool IsCanonical(const std::vector<std::pair<uint32_t, double>>& entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].first >= entries[i].first) return false;
  }
  return true;
}

/// SoA overload: the index column is strictly increasing and the value
/// column stays parallel to it.
bool IsCanonical(const SparseVector& v) {
  if (v.values().size() != v.indices().size()) return false;
  for (size_t i = 1; i < v.indices().size(); ++i) {
    if (v.indices()[i - 1] >= v.indices()[i]) return false;
  }
  return true;
}

TEST(SparseVectorTest, CanonicalizeSortsCoalescesAndCachesNorm) {
  SparseVector v = SparseVector::Canonicalize(
      {{9, 1.0}, {3, 2.0}, {9, 0.5}, {1, -1.0}, {3, -2.0}});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_TRUE(IsCanonical(v));
  EXPECT_EQ(v.indices(), (std::vector<uint32_t>{1, 3, 9}));
  // Index 3 coalesced to zero: the entry stays, at its summed value.
  EXPECT_EQ(v.values(), (std::vector<double>{-1.0, 0.0, 1.5}));
  EXPECT_DOUBLE_EQ(v.norm_sq(), 1.0 + 0.0 + 2.25);
}

TEST(SparseVectorTest, CanonicalizeReducesIndicesIntoModelSpace) {
  SparseVector v =
      SparseVector::Canonicalize({{FeatureVector::kDim + 7, 1.0}, {7, 1.0}});
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v.indices()[0], 7u);
  EXPECT_DOUBLE_EQ(v.values()[0], 2.0);
}

TEST(FeaturesTest, ContextIncludesSpanAndCooccurrences) {
  JobContext ctx;
  ctx.span = BitVector256::FromPositions({41, 44, 50});
  ctx.row_count = 1e6;
  FeatureVector f = BuildContextFeatures(ctx);
  // 3 first-order + 3 pairs + 1 triple + 4 buckets + bias = 12 (no hash
  // collisions among these 12 in the 2^18 space).
  EXPECT_EQ(f.size(), 12u);
  EXPECT_TRUE(IsCanonical(f.entries));
}

TEST(FeaturesTest, TriplesAreCapped) {
  std::vector<int> many;
  for (int i = 40; i < 70; ++i) many.push_back(i);
  JobContext ctx;
  ctx.span = BitVector256::FromPositions(many);
  FeatureVector f = BuildContextFeatures(ctx);
  // 30 singles + C(30,2)=435 pairs + C(12,3)=220 capped triples + 5 misc,
  // minus any hashed-index collisions coalesced by canonicalization.
  EXPECT_LE(f.size(), 30u + 435u + 220u + 5u);
  EXPECT_GE(f.size(), 30u + 435u + 220u + 5u - 4u);
  EXPECT_TRUE(IsCanonical(f.entries));
}

TEST(FeaturesTest, ActionFeaturesEncodeRuleAndCategory) {
  FeatureVector noop = BuildActionFeatures(-1, true);
  EXPECT_EQ(noop.size(), 1u);
  FeatureVector flip = BuildActionFeatures(opt::rules::kHashJoinImpl, false);
  EXPECT_EQ(flip.size(), 2u);  // rule id + category
  EXPECT_TRUE(IsCanonical(flip.entries));
}

TEST(FeaturesTest, CombineAddsQuadraticInteractions) {
  FeatureVector shared;
  shared.AddNamed("a", 1.0);
  shared.AddNamed("b", 1.0);
  FeatureVector action;
  action.AddNamed("x", 1.0);
  SparseVector combined = CombineFeatures(shared, action);
  EXPECT_EQ(combined.size(), 2u + 1u + 2u);  // shared + action + cross
  EXPECT_TRUE(IsCanonical(combined));
  EXPECT_DOUBLE_EQ(combined.norm_sq(), 5.0);
}

TEST(FeaturesTest, CombineIsInvariantUnderInputPermutation) {
  FeatureVector shared_ab, shared_ba;
  shared_ab.AddNamed("a", 1.0);
  shared_ab.AddNamed("b", 2.0);
  shared_ba.AddNamed("b", 2.0);
  shared_ba.AddNamed("a", 1.0);
  FeatureVector action;
  action.AddNamed("x", 1.0);
  action.AddNamed("y", 0.5);
  SparseVector c1 = CombineFeatures(shared_ab, action);
  SparseVector c2 = CombineFeatures(shared_ba, action);
  EXPECT_EQ(c1.indices(), c2.indices());
  EXPECT_EQ(c1.values(), c2.values());
  EXPECT_DOUBLE_EQ(c1.norm_sq(), c2.norm_sq());

  // And a trained model scores the two identically — the canonical form is
  // what the model consumes, not the insertion order.
  CbModel model({.learning_rate = 0.3, .epochs = 5});
  std::vector<LoggedExample> examples;
  for (int i = 0; i < 10; ++i) {
    examples.push_back(
        {std::make_shared<const SparseVector>(c1), 1.5, 1.0});
  }
  model.Train(examples);
  EXPECT_DOUBLE_EQ(model.Score(c1), model.Score(c2));
}

TEST(FeaturesTest, HashingIsStable) {
  EXPECT_EQ(HashFeatureName("span_41"), HashFeatureName("span_41"));
  EXPECT_NE(HashFeatureName("span_41"), HashFeatureName("span_42"));
}

TEST(CbModelTest, LearnsLinearRewards) {
  // Two actions: action A pays 2.0, action B pays 0.5; contexts irrelevant.
  CbModel model({.learning_rate = 0.2, .epochs = 50});
  FeatureVector fa = BuildActionFeatures(10, false);
  FeatureVector fb = BuildActionFeatures(20, false);
  FeatureVector shared;
  shared.AddNamed("bias", 1.0);
  std::vector<LoggedExample> examples;
  for (int i = 0; i < 50; ++i) {
    examples.push_back({CombineFeaturesShared(shared, fa), 2.0, 0.5});
    examples.push_back({CombineFeaturesShared(shared, fb), 0.5, 0.5});
  }
  model.Train(examples);
  EXPECT_GT(model.Score(CombineFeatures(shared, fa)),
            model.Score(CombineFeatures(shared, fb)));
  EXPECT_NEAR(model.Score(CombineFeatures(shared, fa)), 2.0, 0.4);
  EXPECT_NEAR(model.Score(CombineFeatures(shared, fb)), 0.5, 0.4);
}

TEST(CbModelTest, LearnsContextDependentPolicy) {
  // Action A is good only in context 1; action B only in context 2.
  CbModel model({.learning_rate = 0.3, .epochs = 80});
  FeatureVector c1, c2;
  c1.AddNamed("ctx1", 1.0);
  c2.AddNamed("ctx2", 1.0);
  FeatureVector fa = BuildActionFeatures(10, false);
  FeatureVector fb = BuildActionFeatures(20, false);
  std::vector<LoggedExample> examples;
  for (int i = 0; i < 100; ++i) {
    examples.push_back({CombineFeaturesShared(c1, fa), 2.0, 0.5});
    examples.push_back({CombineFeaturesShared(c1, fb), 0.2, 0.5});
    examples.push_back({CombineFeaturesShared(c2, fa), 0.2, 0.5});
    examples.push_back({CombineFeaturesShared(c2, fb), 2.0, 0.5});
  }
  model.Train(examples);
  EXPECT_GT(model.Score(CombineFeatures(c1, fa)),
            model.Score(CombineFeatures(c1, fb)));
  EXPECT_LT(model.Score(CombineFeatures(c2, fa)),
            model.Score(CombineFeatures(c2, fb)));
}

TEST(CbModelTest, DuplicateIndexDecaysWeightOncePerExample) {
  // Regression test for the double-decay / norm-overcount bug: two raw
  // entries forced onto one hashed index must behave as a single coalesced
  // feature — L2 decay applied exactly once per example, norm_sq counting
  // the summed value once.
  CbModel model({.learning_rate = 0.5, .l2 = 0.2, .epochs = 1});
  auto single = std::make_shared<const SparseVector>(
      SparseVector::Canonicalize({{7, 1.0}}));
  auto collided = std::make_shared<const SparseVector>(
      SparseVector::Canonicalize({{7, 1.0}, {7, 1.0}}));
  ASSERT_EQ(collided->size(), 1u);
  EXPECT_DOUBLE_EQ(collided->values()[0], 2.0);
  // The collided feature's norm counts the coalesced value once: (1+1)^2,
  // not 1^2 + 1^2.
  EXPECT_DOUBLE_EQ(collided->norm_sq(), 4.0);

  // Step 1: plain example, reward 1 -> w7 = lr * (1 - 0) / max(1, 1) = 0.5.
  model.TrainEpoch({{single, 1.0, 1.0}});
  EXPECT_NEAR(model.Score(*single), 0.5, 1e-6);

  // Step 2: collided example, reward 0. pred = w7 * 2 = 1.0, norm_sq = 4,
  // grad = 0.5 * (0 - 1) / 4 = -0.125, and the weight decays ONCE:
  //   w7 = 0.5 * (1 - lr * l2) + grad * 2 = 0.5 * 0.9 - 0.25 = 0.2.
  // The pre-fix path decayed twice and interleaved the two updates,
  // yielding -0.07 instead.
  model.TrainEpoch({{collided, 0.0, 1.0}});
  EXPECT_NEAR(model.Score(*single), 0.2, 1e-6);
}

TEST(CbModelTest, ScoreBatchBitIdenticalToPerArmScoreAcrossTables) {
  // Train a model so the weights are non-trivial, then score a batch whose
  // shape exercises every ScoreBatch path: a full block of four, a
  // remainder block, arms of different lengths (per-lane tails), an empty
  // arm, and a null arm. Each arm's batch score must equal its individual
  // Score() bit for bit under both kernel tables.
  CbModel model({.learning_rate = 0.2, .epochs = 30});
  FeatureVector shared;
  shared.AddNamed("bias", 1.0);
  shared.AddNamed("ctx", 0.5);
  std::vector<LoggedExample> examples;
  for (int i = 0; i < 40; ++i) {
    FeatureVector fa = BuildActionFeatures(10 + (i % 5), false);
    examples.push_back(
        {CombineFeaturesShared(shared, fa), (i % 5) * 0.5, 0.5});
  }
  model.Train(examples);

  std::vector<std::shared_ptr<const SparseVector>> arms;
  for (int i = 0; i < 9; ++i) {
    FeatureVector fa = BuildActionFeatures(10 + i, i % 2 == 0);
    arms.push_back(CombineFeaturesShared(shared, fa));
  }
  arms.push_back(std::make_shared<const SparseVector>());  // empty arm
  arms.push_back(nullptr);                                 // null arm
  ASSERT_EQ(arms.size() % kernels::kLanes, 3u);  // remainder block exists

  std::vector<std::vector<double>> per_table;
  for (const kernels::KernelTable* kt :
       {&kernels::ScalarTable(), &kernels::Avx2Table()}) {
    kernels::SetActiveTableForTest(kt);
    std::vector<double> batch = model.ScoreBatch(arms);
    ASSERT_EQ(batch.size(), arms.size());
    for (size_t i = 0; i < arms.size(); ++i) {
      const double single = arms[i] ? model.Score(*arms[i]) : 0.0;
      EXPECT_EQ(batch[i], single) << kt->name << " arm=" << i;
    }
    per_table.push_back(std::move(batch));
  }
  kernels::SetActiveTableForTest(nullptr);
  EXPECT_EQ(per_table[0], per_table[1]);
}

/// "<prefix><i>", built by appending (GCC 12 -Wrestrict misfires on
/// "literal" + std::string temporaries).
std::string Numbered(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

/// True when both models hold the same weight bits and update count.
bool BitwiseEqual(const CbModel& a, const CbModel& b) {
  return a.updates() == b.updates() &&
         a.weights().size() == b.weights().size() &&
         std::memcmp(a.weights().data(), b.weights().data(),
                     a.weights().size() * sizeof(float)) == 0;
}

/// `n` examples over contexts "ctx<k>" x action rules, so consecutive
/// batches touch partly different weights.
std::vector<LoggedExample> ContextBatch(int first, int n) {
  std::vector<LoggedExample> batch;
  for (int i = first; i < first + n; ++i) {
    FeatureVector ctx;
    ctx.AddNamed(Numbered("ctx", i % 11), 1.0);
    ctx.AddNamed("bias", 0.5);
    FeatureVector action = BuildActionFeatures(10 + i % 5, i % 3 == 0);
    batch.push_back({CombineFeaturesShared(ctx, action), (i % 4) * 0.5,
                     0.25 + (i % 3) * 0.25});
  }
  return batch;
}

TEST(CbModelTest, SyncFromCopiesExactlyTheBatchWeights) {
  // `lagging` is `live` one batch ago; syncing it over that batch's
  // features must make the two bitwise equal, with no full copy.
  CbModel live({.learning_rate = 0.2, .l2 = 1e-3, .epochs = 3});
  live.Train(ContextBatch(0, 40));
  CbModel lagging = live;
  const std::vector<LoggedExample> batch = ContextBatch(40, 17);
  live.Train(batch);
  ASSERT_FALSE(BitwiseEqual(lagging, live));

  // A different batch's features do not cover the change.
  CbModel wrong = lagging;
  wrong.SyncFrom(live, ContextBatch(0, 3));
  EXPECT_FALSE(BitwiseEqual(wrong, live));

  lagging.SyncFrom(live, batch);
  EXPECT_TRUE(BitwiseEqual(lagging, live));
  // Equal models keep training in lockstep.
  const std::vector<LoggedExample> next = ContextBatch(57, 9);
  lagging.Train(next);
  live.Train(next);
  EXPECT_TRUE(BitwiseEqual(lagging, live));
}

std::vector<RankableAction> ThreeActions() {
  std::vector<RankableAction> actions;
  for (int i = 0; i < 3; ++i) {
    RankableAction a;
    a.action_id = "a";
    a.action_id += std::to_string(i);
    a.features = BuildActionFeatures(40 + i, false);
    actions.push_back(std::move(a));
  }
  return actions;
}

FeatureVector SmallContext() {
  JobContext ctx;
  ctx.span = BitVector256::FromPositions({41, 44, 50});
  ctx.row_count = 1e6;
  return BuildContextFeatures(ctx);
}

TEST(PersonalizerTest, RankRequiresActionsAndUniqueEventIds) {
  PersonalizerService service;
  RankRequest empty;
  empty.event_id = "e0";
  EXPECT_FALSE(service.Rank(empty).ok());

  RankRequest req;
  req.event_id = "e1";
  req.actions = ThreeActions();
  EXPECT_TRUE(service.Rank(req).ok());
  EXPECT_FALSE(service.Rank(req).ok());  // duplicate id
}

TEST(PersonalizerTest, CompactedEventIdStaysNotFoundAfterStringReuse) {
  // An EventId is the event's global log index, never reused: once "e0" is
  // compacted, ranking "e0" again logs a new event, and a stale reward for
  // the old one must not join it.
  PersonalizerService service({.seed = 3, .retention_window = 4});
  RankRequest req;
  req.actions = ThreeActions();
  req.explore_uniform = true;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    req.event_id = Numbered("e", i);
    auto ranked = service.Rank(req);
    ASSERT_TRUE(ranked.ok());
    ids.push_back(ranked->event);
  }
  ASSERT_EQ(service.resident_events(), 4u);  // "e0" compacted
  req.event_id = "e0";
  auto reused = service.Rank(req);
  ASSERT_TRUE(reused.ok()) << reused.status().ToString();
  EXPECT_NE(reused->event, ids[0]);

  EXPECT_TRUE(service.Reward(ids[0], 1.0).IsNotFound());
  EXPECT_TRUE(service.Reward(reused->event, 1.0).ok());
  // The stale reward touched nothing: the new event took exactly one.
  EXPECT_EQ(service.rewarded_events(), 1u);
  EXPECT_EQ(service.Reward(reused->event, 1.0).code(),
            StatusCode::kFailedPrecondition);
  // A resident id string is still a duplicate.
  req.event_id = "e4";
  EXPECT_EQ(service.Rank(req).status().code(), StatusCode::kInvalidArgument);
}

TEST(PersonalizerTest, FinishTrainAfterForeignWriteKeepsBothBatches) {
  // An inline Retrain between BeginTrain and FinishTrain makes the ticket's
  // model stale; FinishTrain must still fold the ticket's batch in and
  // drop the spare, so the next cycle copies the live model afresh.
  obs::Registry::Get().ZeroAllForTest();
  PersonalizerConfig config{.seed = 5, .retrain_interval = 1000000};
  PersonalizerService service(config);
  auto rank_and_reward = [&service](int i) {
    RankRequest req;
    req.event_id = Numbered("e", i);
    req.context = SmallContext();
    req.actions = ThreeActions();
    req.explore_uniform = true;
    auto ranked = service.Rank(req);
    ASSERT_TRUE(ranked.ok());
    ASSERT_TRUE(service.Reward(ranked->event, (i % 3) * 0.5).ok());
  };
  for (int i = 0; i < 6; ++i) rank_and_reward(i);
  auto ticket = service.BeginTrain();
  ASSERT_TRUE(ticket.has_value());
  ticket->model.Train(ticket->batch);
  service.FinishTrain(std::move(*ticket));  // spare: the cold model

  for (int i = 6; i < 12; ++i) rank_and_reward(i);
  ticket = service.BeginTrain();
  ASSERT_TRUE(ticket.has_value());
  for (int i = 12; i < 16; ++i) rank_and_reward(i);
  service.Retrain();  // foreign write while the ticket is out
  ticket->model.Train(ticket->batch);
  service.FinishTrain(std::move(*ticket));

  const int epochs = config.model.epochs;
  EXPECT_EQ(service.model().updates(), 16u * epochs);
  EXPECT_EQ(Series("bandit.examples_trained"), 16.0);
  EXPECT_EQ(Series("bandit.model_copies"), 1.0);

  // No spare survived: the next cycle copies, and its model is the live one.
  rank_and_reward(16);
  ticket = service.BeginTrain();
  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(Series("bandit.model_copies"), 2.0);
  EXPECT_TRUE(BitwiseEqual(ticket->model, service.model()));
}

TEST(PersonalizerTest, RankRejectsMismatchedPrecombined) {
  PersonalizerService service;
  RankRequest req;
  req.event_id = "e1";
  req.actions = ThreeActions();
  req.precombined = {CombineFeaturesShared(SmallContext(), req.actions[0].features)};
  EXPECT_FALSE(service.Rank(req).ok());  // 1 precombined vs 3 actions

  // Correct size but a null entry is rejected too (nothing null may reach
  // the event log, where BestAction dereferences unchecked).
  req.precombined.resize(3);
  EXPECT_FALSE(service.Rank(req).ok());
}

TEST(PersonalizerTest, UniformExplorationHasUniformPropensity) {
  PersonalizerService service({.seed = 4});
  RankRequest req;
  req.event_id = "e";
  req.actions = ThreeActions();
  req.explore_uniform = true;
  auto resp = service.Rank(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_NEAR(resp->probability, 1.0 / 3.0, 1e-12);
}

TEST(PersonalizerTest, RewardJoinSemantics) {
  obs::Registry::Get().ZeroAllForTest();
  PersonalizerService service;
  RankRequest req;
  req.event_id = "e1";
  req.actions = ThreeActions();
  auto ranked = service.Rank(req);
  ASSERT_TRUE(ranked.ok());
  EXPECT_TRUE(service.Reward(ranked->event, 1.5).ok());
  // Double reward, invalid and never-issued events are rejected.
  EXPECT_EQ(service.Reward(ranked->event, 1.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.Reward(EventId{}, 1.0).IsNotFound());
  EXPECT_TRUE(
      service.Reward(EventId{ranked->event.value + 1}, 1.0).IsNotFound());
  EXPECT_EQ(service.rewarded_events(), 1u);
  EXPECT_EQ(service.logged_events(), 1u);
  EXPECT_EQ(Series("bandit.reward_joins"), 1.0);
  EXPECT_EQ(Series("bandit.reward_failures"), 3.0);
}

TEST(PersonalizerTest, PrecombinedRanksIdenticallyAndSharesVectors) {
  // Two identically seeded services fed the same event stream; one combines
  // inline per Rank, the other shares precombined vectors per "job". Both
  // must produce identical choices, propensities and learned models.
  PersonalizerConfig config{.seed = 11, .retrain_interval = 40};
  PersonalizerService inline_service(config);
  PersonalizerService shared_service(config);
  FeatureVector context = SmallContext();
  std::vector<RankableAction> actions = ThreeActions();
  // The shared service's counts: deltas around its own Rank calls.
  double shared_combines = 0.0;
  double shared_reused = 0.0;

  for (int i = 0; i < 120; ++i) {
    auto combined = CombineActionSet(context, actions);
    RankRequest plain;
    plain.event_id = "e";
    plain.event_id += std::to_string(i);
    plain.context = context;
    plain.actions = actions;
    plain.explore_uniform = (i % 2 == 0);
    RankRequest pre = plain;
    pre.precombined = combined;

    auto r1 = inline_service.Rank(plain);
    const double combines_before = Series("bandit.combines");
    const double reused_before = Series("bandit.precombined_reused");
    auto r2 = shared_service.Rank(pre);
    shared_combines += Series("bandit.combines") - combines_before;
    shared_reused += Series("bandit.precombined_reused") - reused_before;
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r1->chosen_index, r2->chosen_index);
    EXPECT_EQ(r1->probability, r2->probability);
    // The logged event holds the caller's vectors, not copies: the probe
    // and acting arms of one job share one combine.
    for (const auto& c : combined) EXPECT_GT(c.use_count(), 1);
    double reward = r1->chosen_index == 1 ? 2.0 : 0.5;
    ASSERT_TRUE(inline_service.Reward(r1->event, reward).ok());
    ASSERT_TRUE(shared_service.Reward(r2->event, reward).ok());
  }
  inline_service.Retrain();
  shared_service.Retrain();
  for (const auto& action : actions) {
    SparseVector probe = CombineFeatures(context, action.features);
    EXPECT_DOUBLE_EQ(inline_service.model().Score(probe),
                     shared_service.model().Score(probe));
  }
  EXPECT_GT(shared_reused, 0.0);
  EXPECT_EQ(shared_combines, 0.0);
}

TEST(PersonalizerTest, IncrementalRetrainMatchesFullRetrain) {
  // With epochs = 1, retraining after every batch produces exactly the same
  // SGD update sequence as one retrain over all pending examples: the
  // incremental path must drop nothing and train nothing twice.
  PersonalizerConfig config{.model = {.epochs = 1},
                            .seed = 21,
                            .retrain_interval = 1000000};
  PersonalizerService incremental(config);
  PersonalizerService full(config);
  FeatureVector context = SmallContext();
  std::vector<RankableAction> actions = ThreeActions();
  // Examples each service trained on: deltas around its own retrains.
  double incremental_trained = 0.0;
  auto retrain = [](PersonalizerService& service) {
    const double before = Series("bandit.examples_trained");
    service.Retrain();
    return Series("bandit.examples_trained") - before;
  };

  for (int i = 0; i < 120; ++i) {
    RankRequest req;
    req.event_id = "e";
    req.event_id += std::to_string(i);
    req.context = context;
    req.actions = actions;
    req.explore_uniform = true;  // identical RNG consumption in both
    auto r1 = incremental.Rank(req);
    auto r2 = full.Rank(req);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    ASSERT_EQ(r1->chosen_index, r2->chosen_index);
    double reward = r1->chosen_index == 2 ? 1.5 : 0.5;
    ASSERT_TRUE(incremental.Reward(r1->event, reward).ok());
    ASSERT_TRUE(full.Reward(r2->event, reward).ok());
    if ((i + 1) % 40 == 0) incremental_trained += retrain(incremental);
  }
  const double full_trained = retrain(full);
  for (const auto& action : actions) {
    SparseVector probe = CombineFeatures(context, action.features);
    EXPECT_DOUBLE_EQ(incremental.model().Score(probe),
                     full.model().Score(probe));
  }
  EXPECT_EQ(incremental_trained, full_trained);
}

TEST(PersonalizerTest, RankPipelineByteIdenticalAcrossKernelTables) {
  // The full rank -> reward -> retrain loop replayed once per kernel table
  // (the QO_SIMD on/off states in one binary): choices, propensities, and
  // the learned model must be bit-identical — ScoreBatch feeds the softmax
  // tie-break RNG, so a single ulp of drift would change a choice.
  const std::vector<const kernels::KernelTable*> tables = {
      &kernels::ScalarTable(), &kernels::Avx2Table()};
  std::vector<std::vector<int>> choices(tables.size());
  std::vector<std::vector<double>> probabilities(tables.size());
  std::vector<std::vector<double>> final_scores(tables.size());
  FeatureVector context = SmallContext();
  std::vector<RankableAction> actions = ThreeActions();
  for (size_t t = 0; t < tables.size(); ++t) {
    kernels::SetActiveTableForTest(tables[t]);
    PersonalizerService service({.seed = 17, .retrain_interval = 25});
    for (int i = 0; i < 100; ++i) {
      RankRequest req;
      req.event_id = "e";
      req.event_id += std::to_string(i);
      req.context = context;
      req.actions = actions;
      auto r = service.Rank(req);
      ASSERT_TRUE(r.ok());
      choices[t].push_back(r->chosen_index);
      probabilities[t].push_back(r->probability);
      double reward = r->chosen_index == 1 ? 2.0 : 0.5;
      ASSERT_TRUE(service.Reward(r->event, reward).ok());
    }
    service.Retrain();
    for (const auto& action : actions) {
      final_scores[t].push_back(
          service.model().Score(CombineFeatures(context, action.features)));
    }
  }
  kernels::SetActiveTableForTest(nullptr);
  EXPECT_EQ(choices[0], choices[1]);
  EXPECT_EQ(probabilities[0], probabilities[1]);
  EXPECT_EQ(final_scores[0], final_scores[1]);
}

TEST(PersonalizerTest, RetentionBoundsResidentEvents) {
  obs::Registry::Get().ZeroAllForTest();
  PersonalizerService service({.seed = 13,
                               .retrain_interval = 16,
                               .retention_window = 64});
  EventId first;
  // "Acting arm" events (every third) are never rewarded — retention must
  // reclaim them too.
  for (int i = 0; i < 400; ++i) {
    RankRequest req;
    req.event_id = "e";
    req.event_id += std::to_string(i);
    req.actions = ThreeActions();
    req.explore_uniform = true;
    auto resp = service.Rank(req);
    ASSERT_TRUE(resp.ok());
    if (i == 0) first = resp->event;
    if (i % 3 != 0) {
      ASSERT_TRUE(service.Reward(resp->event, 1.0).ok());
    }
    EXPECT_LE(service.resident_events(), 64u);
    // The duplicate-detection index is resident-only too.
    EXPECT_LE(service.indexed_event_ids(), 64u);
    EXPECT_EQ(service.indexed_event_ids(), service.resident_events());
  }
  EXPECT_EQ(service.logged_events(), 400u);
  EXPECT_GT(Series("bandit.events_compacted"), 0.0);
  // A reward for an event beyond the retention window is an expired join.
  EXPECT_TRUE(service.Reward(first, 1.0).IsNotFound());
  // The retained window still supports offline evaluation.
  EXPECT_TRUE(service.EvaluateOffline().ok());
}

TEST(PersonalizerTest, ColdStartRanksUniformly) {
  // With an untrained model all scores tie at zero; ties break randomly, so
  // all actions should be chosen across many requests.
  PersonalizerService service({.epsilon = 0.0, .seed = 8});
  std::set<std::string> chosen;
  for (int i = 0; i < 60; ++i) {
    RankRequest req;
    req.event_id = "e";
    req.event_id += std::to_string(i);
    req.actions = ThreeActions();
    auto resp = service.Rank(req);
    ASSERT_TRUE(resp.ok());
    chosen.insert(resp->chosen_action_id);
  }
  EXPECT_EQ(chosen.size(), 3u);
}

TEST(PersonalizerTest, LearnsToPickTheGoodAction) {
  PersonalizerService service(
      {.epsilon = 0.1, .model = {.epochs = 5}, .seed = 6,
       .retrain_interval = 50});
  // Reward structure: action a1 pays 2.0, others 0.5.
  for (int i = 0; i < 400; ++i) {
    RankRequest req;
    req.event_id = "train";
    req.event_id += std::to_string(i);
    req.actions = ThreeActions();
    req.explore_uniform = true;
    auto resp = service.Rank(req);
    ASSERT_TRUE(resp.ok());
    double reward = resp->chosen_action_id == "a1" ? 2.0 : 0.5;
    ASSERT_TRUE(service.Reward(resp->event, reward).ok());
  }
  service.Retrain();
  int picked_good = 0;
  const int kTrials = 100;
  for (int i = 0; i < kTrials; ++i) {
    RankRequest req;
    req.event_id = "test";
    req.event_id += std::to_string(i);
    req.actions = ThreeActions();
    auto resp = service.Rank(req);
    ASSERT_TRUE(resp.ok());
    picked_good += resp->chosen_action_id == "a1";
  }
  // Greedy (1 - epsilon) plus a share of exploration.
  EXPECT_GT(picked_good, 75);
}

TEST(PersonalizerTest, OfflineEvaluationComparesPolicies) {
  PersonalizerService service({.seed = 2, .retrain_interval = 1000000});
  for (int i = 0; i < 200; ++i) {
    RankRequest req;
    req.event_id = "e";
    req.event_id += std::to_string(i);
    req.actions = ThreeActions();
    req.explore_uniform = true;
    auto resp = service.Rank(req);
    ASSERT_TRUE(resp.ok());
    service.Reward(resp->event, resp->chosen_action_id == "a2" ? 3.0 : 0.1)
        .ok();
  }
  service.Retrain();
  auto eval = service.EvaluateOffline();
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->events, 200u);
  // The learned greedy policy should beat the uniform logging baseline.
  EXPECT_GT(eval->policy_ips_estimate, eval->logged_average_reward);
}

TEST(PersonalizerTest, EvaluateOfflineRequiresRewards) {
  PersonalizerService service;
  EXPECT_FALSE(service.EvaluateOffline().ok());
}

}  // namespace
}  // namespace qo::bandit
