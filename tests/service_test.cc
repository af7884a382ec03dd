// Advisor service tests: the env-snapshot-once contract of AdvisorOptions,
// the AdvisorApi request/response flow against per-tenant state, RCU
// snapshot-swap linearizability (a reader never observes a half-published
// snapshot), fully concurrent rank/reward/compile/upload from 8 threads x 4
// tenants with the background trainer live (the TSAN CI leg's target), and
// byte-identity of scripted per-tenant streams at 1 vs 4 serving threads —
// the service-layer extension of the runtime determinism contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "experiments/experiments.h"
#include "obs/metrics.h"
#include "optimizer/rules.h"
#include "runtime/runtime.h"
#include "service/advisor_service.h"
#include "workload/workload.h"

namespace qo::service {
namespace {

// --- AdvisorOptions ---------------------------------------------------------

// Saves + restores one env var around a test body.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  void Set(const char* value) { ::setenv(name_.c_str(), value, 1); }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(AdvisorOptionsTest, DefaultsReadNothingFromEnv) {
  ScopedEnv threads("QO_THREADS", "9");
  AdvisorOptions options = AdvisorOptions::Defaults();
  EXPECT_EQ(options.runtime.num_threads, 1);
  EXPECT_EQ(options.retrain_period_ms, 0);
  EXPECT_FALSE(options.guard.enabled);
}

TEST(AdvisorOptionsTest, FromEnvSnapshotsOnce) {
  ScopedEnv threads("QO_THREADS", "3");
  ScopedEnv retrain("QO_SERVICE_RETRAIN_MS", "250");
  AdvisorOptions snapshot = AdvisorOptions::FromEnv();
  EXPECT_EQ(snapshot.runtime.num_threads, 3);
  EXPECT_EQ(snapshot.retrain_period_ms, 250);

  // Later env mutations are invisible to the captured snapshot; only a new
  // FromEnv() call observes them.
  threads.Set("7");
  retrain.Set("0");
  EXPECT_EQ(snapshot.runtime.num_threads, 3);
  EXPECT_EQ(snapshot.retrain_period_ms, 250);
  AdvisorOptions fresh = AdvisorOptions::FromEnv();
  EXPECT_EQ(fresh.runtime.num_threads, 7);
  EXPECT_EQ(fresh.retrain_period_ms, 0);
}

// --- Request/response flow --------------------------------------------------

// A tiny deterministic job for compile tests.
workload::JobInstance TestJob(int salt) {
  workload::WorkloadDriver driver({.num_templates = 4,
                                   .jobs_per_day = 8,
                                   .recurring_fraction = 1.0,
                                   .template_skew = 0.0,
                                   .seed = 42});
  std::vector<workload::JobInstance> jobs = driver.DayJobs(0);
  return jobs[static_cast<size_t>(salt) % jobs.size()];
}

/// "<prefix><i>", built by appending (GCC 12 -Wrestrict misfires on
/// "literal" + std::string temporaries).
std::string Numbered(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

RankRequest TestRank(const std::string& tenant, int i) {
  RankRequest rank;
  rank.tenant = tenant;
  rank.event_id = tenant + "-e" + std::to_string(i);
  rank.context.AddNamed("ctx", 1.0);
  for (int a = 0; a < 3; ++a) {
    bandit::RankableAction action;
    action.action_id = Numbered("a", a);
    action.features.AddNamed(Numbered("arm", a), 1.0);
    rank.actions.push_back(std::move(action));
  }
  return rank;
}

TEST(AdvisorServiceTest, OpenTenantPublishesInitialSnapshot) {
  AdvisorService advisor;
  auto session = advisor.OpenTenant("t0");
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  std::shared_ptr<const ServiceSnapshot> snap = session->snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->sequence, 1u);
  EXPECT_EQ(snap->model_generation, 0u);
  ASSERT_NE(snap->hints, nullptr);
  EXPECT_EQ(snap->hints->version(), 0);
  EXPECT_EQ(snap->checksum, ServiceSnapshot::Fingerprint(*snap));

  EXPECT_TRUE(advisor.OpenTenant("t0").status().code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(advisor.Session("nope").status().IsNotFound());
  EXPECT_TRUE(advisor.Rank(TestRank("nope", 0)).status().IsNotFound());
  EXPECT_EQ(advisor.CurrentSnapshot("nope"), nullptr);
}

TEST(AdvisorServiceTest, RankRewardCompileUploadFlow) {
  AdvisorService advisor;
  auto session = advisor.OpenTenant("flow");
  ASSERT_TRUE(session.ok());

  // Rank returns a valid typed event bound to the initial snapshot.
  auto ranked = session->Rank(TestRank("flow", 0));
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  EXPECT_TRUE(ranked->event.valid());
  EXPECT_LT(ranked->chosen_index, 3u);
  EXPECT_EQ(ranked->snapshot_sequence, 1u);

  // Typed reward join; then a second reward on the same event must fail.
  auto rewarded = session->Reward(ranked->event, 0.5);
  ASSERT_TRUE(rewarded.ok()) << rewarded.status().ToString();
  EXPECT_EQ(rewarded->rewarded_events, 1u);
  EXPECT_FALSE(session->Reward(ranked->event, 0.5).ok());

  // The request form joins on the same typed id; an invalid id (a request
  // that never carried a RankResponse's event) is NotFound.
  auto ranked2 = session->Rank(TestRank("flow", 1));
  ASSERT_TRUE(ranked2.ok());
  RewardRequest by_request;
  by_request.event = ranked2->event;
  by_request.reward = 1.0;
  auto rewarded2 = session->Reward(by_request);
  ASSERT_TRUE(rewarded2.ok()) << rewarded2.status().ToString();
  EXPECT_EQ(rewarded2->rewarded_events, 2u);
  EXPECT_TRUE(session->Reward(bandit::EventId{}, 1.0).status().IsNotFound());

  // Compile before any hints: default config, version-0 snapshot view.
  workload::JobInstance job = TestJob(0);
  auto base = session->Compile(job);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_FALSE(base->hint_applied);
  EXPECT_EQ(base->rule_id, -1);
  EXPECT_EQ(base->sis_version, 0);

  // Upload a hint for the job's template; the republished snapshot carries
  // it to the very next compile.
  sis::HintFile hints;
  hints.day = 0;
  hints.entries.push_back({.template_name = job.template_name,
                           .rule_id = opt::rules::kBroadcastJoinAggressive,
                           .enable = true});
  auto upload = session->UploadHints(hints);
  ASSERT_TRUE(upload.ok()) << upload.status().ToString();
  EXPECT_EQ(upload->version, 1);
  EXPECT_EQ(upload->active_hints, 1u);
  EXPECT_GT(upload->snapshot_sequence, 1u);

  auto steered = session->Compile(job);
  ASSERT_TRUE(steered.ok());
  EXPECT_TRUE(steered->hint_applied);
  EXPECT_EQ(steered->rule_id, opt::rules::kBroadcastJoinAggressive);
  EXPECT_EQ(steered->sis_version, 1);

  // apply_hints=false bypasses the hint without touching the snapshot.
  auto unsteered = session->Compile(job, /*apply_hints=*/false);
  ASSERT_TRUE(unsteered.ok());
  EXPECT_FALSE(unsteered->hint_applied);
}

TEST(AdvisorServiceTest, TrainAndPublishAdvancesGenerations) {
  obs::Registry::Get().ZeroAllForTest();
  AdvisorService advisor;
  auto session = advisor.OpenTenant("train");
  ASSERT_TRUE(session.ok());

  // Nothing pending: no cycle, no publication.
  EXPECT_FALSE(session->TrainAndPublish());
  EXPECT_EQ(session->snapshot()->sequence, 1u);

  for (int i = 0; i < 8; ++i) {
    auto ranked = session->Rank(TestRank("train", i));
    ASSERT_TRUE(ranked.ok());
    ASSERT_TRUE(session->Reward(ranked->event, i % 2 == 0 ? 1.0 : 0.0).ok());
  }
  EXPECT_TRUE(session->TrainAndPublish());
  std::shared_ptr<const ServiceSnapshot> snap = session->snapshot();
  EXPECT_EQ(snap->model_generation, 1u);
  EXPECT_EQ(snap->sequence, 2u);
  EXPECT_GT(snap->model_updates, 0u);
  EXPECT_EQ(snap->checksum, ServiceSnapshot::Fingerprint(*snap));

  // The drained batch is gone: a second cycle has nothing to train on.
  EXPECT_FALSE(session->TrainAndPublish());

  // Every rewarded example reached the service's trainer; publications are
  // not counted as learner retrains.
  const obs::MetricsSnapshot counts = obs::Registry::Get().Snapshot();
  EXPECT_EQ(counts.SeriesValue("bandit.reward_joins"), 8.0);
  EXPECT_EQ(counts.SeriesValue("bandit.examples_trained"), 8.0);
  EXPECT_EQ(counts.SeriesValue("bandit.retrains"), 0.0);
}

// --- Retrain cycles: the spare handoff ---------------------------------------

/// The registry series `name` (0 before its first event).
double Series(const char* name) {
  return obs::Registry::Get().Snapshot().SeriesValue(name);
}

/// TestRank plus one of 13 context features, so consecutive retrain
/// batches touch partly different weights: a catch-up that missed a
/// weight the previous batch wrote would score differently.
RankRequest VariedRank(const std::string& tenant, int i) {
  RankRequest rank = TestRank(tenant, i);
  rank.context.AddNamed(Numbered("c", i % 13), 1.0);
  return rank;
}

/// The same request addressed to a bare learner.
bandit::RankRequest ForLearner(const RankRequest& request) {
  bandit::RankRequest rank;
  rank.event_id = request.event_id;
  rank.context = request.context;
  rank.actions = request.actions;
  rank.explore_uniform = request.explore_uniform;
  return rank;
}

/// Scores of every context x arm combination VariedRank produces.
std::vector<double> ProbeScores(const bandit::CbModel& model) {
  std::vector<double> scores;
  for (int i = 0; i < 13; ++i) {
    RankRequest rank = VariedRank("probe", i);
    for (const bandit::RankableAction& action : rank.actions) {
      scores.push_back(
          model.Score(bandit::CombineFeatures(rank.context, action.features)));
    }
  }
  return scores;
}

/// True when both models hold the same weight bits and update count.
bool BitwiseEqual(const bandit::CbModel& a, const bandit::CbModel& b) {
  return a.updates() == b.updates() &&
         a.weights().size() == b.weights().size() &&
         std::memcmp(a.weights().data(), b.weights().data(),
                     a.weights().size() * sizeof(float)) == 0;
}

/// Ranks `op` on both the tenant and the reference learner, checks they
/// chose alike and rewards both identically. Returns how many inline
/// retrains the tenant's reward triggered.
double RankAndRewardBoth(TenantSession& session,
                         bandit::PersonalizerService& reference, int op) {
  const RankRequest request = VariedRank(session.tenant(), op);
  auto ranked = session.Rank(request);
  auto expected = reference.Rank(ForLearner(request));
  EXPECT_TRUE(ranked.ok() && expected.ok());
  if (!ranked.ok() || !expected.ok()) return 0.0;
  EXPECT_EQ(ranked->chosen_index, expected->chosen_index) << "op " << op;
  EXPECT_EQ(ranked->probability, expected->probability) << "op " << op;
  const double reward = ranked->chosen_index == static_cast<size_t>(op % 3)
                            ? 1.0
                            : 0.0;
  const double before = Series("bandit.retrains");
  EXPECT_TRUE(session.Reward(ranked->event, reward).ok());
  const double inline_retrains = Series("bandit.retrains") - before;
  EXPECT_TRUE(reference.Reward(expected->event, reward).ok());
  return inline_retrains;
}

// 120 retrain cycles with a hint upload after each: the live model must
// stay bit-identical to a learner that retrains inline on the same reward
// stream, while the whole run makes exactly one full model copy (the first
// cycle's; every later cycle recycles the spare).
TEST(AdvisorServiceRetrainTest, SpareHandoffMatchesInlineRetrain) {
  obs::Registry::Get().ZeroAllForTest();
  AdvisorService advisor;
  auto session = advisor.OpenTenant("spare");
  ASSERT_TRUE(session.ok());
  // The tenant's own config: the service owns cadence, so the reference
  // never retrains on its own either.
  bandit::PersonalizerService reference(session->personalizer().config());
  const int kCycles = 120;
  const int kOpsPerCycle = 6;
  int op = 0;
  for (int c = 0; c < kCycles; ++c) {
    for (int k = 0; k < kOpsPerCycle; ++k) {
      RankAndRewardBoth(*session, reference, op++);
    }
    ASSERT_TRUE(session->TrainAndPublish());
    reference.Retrain();
    ASSERT_EQ(ProbeScores(session->personalizer().model()),
              ProbeScores(reference.model()))
        << "cycle " << c;
    // An upload republishes between cycles without touching the model.
    sis::HintFile hints;
    hints.day = c;
    hints.entries.push_back({.template_name = Numbered("T", c % 4),
                             .rule_id = opt::rules::kBroadcastJoinAggressive,
                             .enable = true});
    ASSERT_TRUE(session->UploadHints(hints).ok());
  }
  EXPECT_TRUE(BitwiseEqual(session->personalizer().model(), reference.model()));
  std::shared_ptr<const ServiceSnapshot> snap = session->snapshot();
  EXPECT_EQ(snap->model_generation, static_cast<uint64_t>(kCycles));
  EXPECT_EQ(snap->model_updates, reference.model().updates());
  EXPECT_EQ(snap->checksum, ServiceSnapshot::Fingerprint(*snap));
  EXPECT_EQ(Series("bandit.model_copies"), 1.0);
}

// A learner that also retrains inline (a pipeline-style tenant): each
// inline Retrain writes the live model behind the spare's back, so the
// spare is dropped and the next cycle pays one full copy — and still ends
// bit-identical to the reference.
TEST(AdvisorServiceRetrainTest, InlineRetrainDropsSpareAndNextCycleMatches) {
  obs::Registry::Get().ZeroAllForTest();
  AdvisorService advisor;
  TenantConfig config;
  config.service_owns_retrain = false;
  config.personalizer.retrain_interval = 13;
  auto session = advisor.OpenTenant("foreign", config);
  ASSERT_TRUE(session.ok());
  bandit::PersonalizerService reference(config.personalizer);
  // Cycles at ops 4 and 9 of every 20 leave 13 rewards between ops 10 and
  // 22, so each block retrains inline once, then cycles twice.
  double inline_retrains = 0.0;
  for (int op = 0; op < 200; ++op) {
    inline_retrains += RankAndRewardBoth(*session, reference, op);
    if (op % 20 == 4 || op % 20 == 9) {
      ASSERT_TRUE(session->TrainAndPublish());
      reference.Retrain();
      ASSERT_EQ(ProbeScores(session->personalizer().model()),
                ProbeScores(reference.model()))
          << "op " << op;
    }
  }
  ASSERT_TRUE(session->TrainAndPublish());
  reference.Retrain();
  EXPECT_TRUE(BitwiseEqual(session->personalizer().model(), reference.model()));
  EXPECT_GT(inline_retrains, 0.0);
  // The first cycle's copy, plus one after each inline retrain.
  EXPECT_EQ(Series("bandit.model_copies"), 1.0 + inline_retrains);
}

// --- RCU linearizability ----------------------------------------------------

// Readers spin on the snapshot while a writer keeps retraining/uploading:
// every observed snapshot must be internally consistent (checksum matches a
// recomputed fingerprint — no half-published state) and sequences must be
// monotone per reader. TSAN covers the memory-order claims in CI.
TEST(AdvisorServiceConcurrencyTest, SnapshotSwapLinearizability) {
  AdvisorService advisor;
  auto session = advisor.OpenTenant("rcu");
  ASSERT_TRUE(session.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> non_monotone{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&advisor, &stop, &torn, &non_monotone] {
      uint64_t last_seq = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const ServiceSnapshot> snap =
            advisor.CurrentSnapshot("rcu");
        if (snap == nullptr || snap->hints == nullptr ||
            snap->checksum != ServiceSnapshot::Fingerprint(*snap)) {
          torn.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (snap->sequence < last_seq) {
          non_monotone.fetch_add(1, std::memory_order_relaxed);
        }
        last_seq = snap->sequence;
      }
    });
  }

  // Writer: interleave reward traffic, retrains and hint uploads.
  for (int i = 0; i < 200; ++i) {
    auto ranked = session->Rank(TestRank("rcu", i));
    ASSERT_TRUE(ranked.ok());
    ASSERT_TRUE(session->Reward(ranked->event, (i % 3) / 2.0).ok());
    if (i % 5 == 4) session->TrainAndPublish();
    if (i % 50 == 49) {
      sis::HintFile hints;
      hints.day = i / 50;
      hints.entries.push_back(
          {.template_name = "T" + std::to_string(i / 50),
           .rule_id = opt::rules::kBroadcastJoinAggressive,
           .enable = true});
      ASSERT_TRUE(session->UploadHints(hints).ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(non_monotone.load(), 0);
  EXPECT_GE(session->snapshot()->sequence, 40u);
}

// Two trainers (think: the background loop plus an explicit call) race on
// one tenant while a writer ranks and rewards. Cycles are serialized per
// tenant, so no batch's training is lost: after a final drain the model
// has taken exactly epochs updates per trained example.
TEST(AdvisorServiceConcurrencyTest, OverlappingTrainersLoseNoRetrain) {
  obs::Registry::Get().ZeroAllForTest();
  AdvisorService advisor;
  auto session = advisor.OpenTenant("race");
  ASSERT_TRUE(session.ok());
  std::atomic<bool> stop{false};
  std::atomic<int> published{0};
  std::vector<std::thread> trainers;
  for (int k = 0; k < 2; ++k) {
    trainers.emplace_back([&session, &stop, &published] {
      while (!stop.load(std::memory_order_acquire)) {
        if (session->TrainAndPublish()) {
          published.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();
      }
    });
  }
  const int kOps = 300;
  for (int i = 0; i < kOps; ++i) {
    auto ranked = session->Rank(VariedRank("race", i));
    ASSERT_TRUE(ranked.ok());
    ASSERT_TRUE(session->Reward(ranked->event, (i % 4) / 3.0).ok());
    // Every 30 ops, wait for the trainers to drain what is pending, so
    // cycles run while the writer is active however threads get scheduled.
    if (i % 30 == 29) {
      while (Series("bandit.examples_trained") < i + 1) {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : trainers) t.join();
  session->TrainAndPublish();  // final drain

  const double trained = Series("bandit.examples_trained");
  EXPECT_EQ(trained, static_cast<double>(kOps));
  const double epochs = session->personalizer().config().model.epochs;
  std::shared_ptr<const ServiceSnapshot> snap = session->snapshot();
  EXPECT_EQ(static_cast<double>(snap->model_updates), epochs * trained);
  EXPECT_EQ(snap->model_updates, session->personalizer().model().updates());
  EXPECT_EQ(snap->checksum, ServiceSnapshot::Fingerprint(*snap));
  EXPECT_GE(published.load(), kOps / 30);
}

// 8 serving threads x 4 tenants, every API op in the mix, background
// trainer swapping snapshots at 1ms — the full concurrent-serving shape.
// Assertions are counted (per-op EXPECTs from multiple threads are fine in
// gtest, but keeping shared state in atomics makes failures readable).
TEST(AdvisorServiceConcurrencyTest, ConcurrentServingAcrossTenants) {
  AdvisorOptions options;
  AdvisorService advisor(options);
  const int kTenants = 4;
  const int kThreads = 8;
  const int kOpsPerThread = 60;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(advisor.OpenTenant("tenant" + std::to_string(t)).ok());
  }
  advisor.StartBackgroundTrainer(std::chrono::milliseconds(1));
  ASSERT_TRUE(advisor.background_trainer_running());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&advisor, &failures, w] {
      const std::string tenant = "tenant" + std::to_string(w % kTenants);
      auto session = advisor.Session(tenant);
      if (!session.ok()) {
        failures.fetch_add(1000);
        return;
      }
      workload::JobInstance job = TestJob(w);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Unique event ids per (thread, op): rank + typed reward.
        auto ranked = session->Rank(
            TestRank(tenant + "-w" + std::to_string(w), i));
        if (!ranked.ok() || !ranked->event.valid()) failures.fetch_add(1);
        if (ranked.ok() && !session->Reward(ranked->event, 0.25).ok()) {
          failures.fetch_add(1);
        }
        if (!session->Compile(job).ok()) failures.fetch_add(1);
        if (i % 16 == 15) {
          char tpl[32];
          std::snprintf(tpl, sizeof(tpl), "W%d_%d", w, i);
          sis::HintFile hints;
          hints.day = w * kOpsPerThread + i;
          hints.entries.push_back(
              {.template_name = tpl,
               .rule_id = opt::rules::kEagerAggregationLeft,
               .enable = true});
          if (!session->UploadHints(hints).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  advisor.StopBackgroundTrainer();
  EXPECT_FALSE(advisor.background_trainer_running());
  EXPECT_EQ(failures.load(), 0);

  // Post-run: every tenant's final snapshot is coherent and the learner
  // absorbed every reward (8 threads x 60 ops / 4 tenants each).
  for (int t = 0; t < kTenants; ++t) {
    auto snap = advisor.CurrentSnapshot("tenant" + std::to_string(t));
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->checksum, ServiceSnapshot::Fingerprint(*snap));
  }
}

// --- Determinism across thread counts --------------------------------------

// Scripted per-tenant streams: the tenant is the unit of parallelism, so
// transcripts must be byte-identical no matter how many runtime threads
// serve them (timing-dependent snapshot swaps are pinned by synchronous
// TrainAndPublish inside each stream).
std::string ScriptedStream(AdvisorService& advisor, int tenant_idx, int ops) {
  const std::string tenant = "s" + std::to_string(tenant_idx);
  auto session = advisor.Session(tenant);
  if (!session.ok()) return "open-failed";
  workload::JobInstance job = TestJob(tenant_idx);
  std::string transcript;
  char line[160];
  for (int i = 0; i < ops; ++i) {
    auto compiled = session->Compile(job);
    if (!compiled.ok()) return "compile-failed";
    auto ranked = session->Rank(TestRank(tenant, i));
    if (!ranked.ok()) return "rank-failed";
    if (!session->Reward(ranked->event, (i % 5) / 4.0).ok()) {
      return "reward-failed";
    }
    std::snprintf(line, sizeof(line), "%d %.6f %d %zu %s %.4f %llu\n", i,
                  compiled->compilation->est_cost, compiled->sis_version,
                  ranked->chosen_index, ranked->chosen_action_id.c_str(),
                  ranked->probability,
                  static_cast<unsigned long long>(ranked->snapshot_sequence));
    transcript += line;
    if (i % 10 == 9) session->TrainAndPublish();
    if (i == ops / 2) {
      sis::HintFile hints;
      hints.day = 0;
      hints.entries.push_back(
          {.template_name = job.template_name,
           .rule_id = opt::rules::kBroadcastJoinAggressive,
           .enable = true});
      if (!session->UploadHints(hints).ok()) return "upload-failed";
    }
  }
  return transcript;
}

std::vector<std::string> RunScripted(int num_threads, int tenants, int ops) {
  AdvisorOptions options;
  options.runtime.num_threads = num_threads;
  AdvisorService advisor(options);
  for (int t = 0; t < tenants; ++t) {
    char name[16];
    std::snprintf(name, sizeof(name), "s%d", t);
    EXPECT_TRUE(advisor.OpenTenant(name).ok());
  }
  runtime::ParallelRuntime runtime(options.runtime);
  return runtime.TransformOrdered<std::string>(
      static_cast<size_t>(tenants),
      [](size_t i) { return static_cast<uint64_t>(i); },
      [](size_t i) { return static_cast<double>(i); },
      [&advisor, ops](size_t i) {
        return ScriptedStream(advisor, static_cast<int>(i), ops);
      });
}

TEST(AdvisorServiceDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  const int kTenants = 3;
  const int kOps = 40;
  std::vector<std::string> serial = RunScripted(1, kTenants, kOps);
  std::vector<std::string> parallel = RunScripted(4, kTenants, kOps);
  ASSERT_EQ(serial.size(), parallel.size());
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(serial[static_cast<size_t>(t)],
              parallel[static_cast<size_t>(t)])
        << "tenant " << t << " transcript differs between 1 and 4 threads";
    EXPECT_GT(serial[static_cast<size_t>(t)].size(), 0u);
  }
}

// --- Offline pipeline through the service ----------------------------------

// A pipeline tenant borrows the harness engine and keeps the offline
// retrain cadence; RunPipelineDay republishes the snapshot each day.
TEST(AdvisorServicePipelineTest, RunPipelineDayPublishes) {
  experiments::ExperimentEnv env(
      {.num_templates = 20, .jobs_per_day = 40, .seed = 11});
  AdvisorService advisor;
  TenantConfig tenant;
  tenant.engine = &env.engine();
  tenant.service_owns_retrain = false;
  tenant.pipeline.validation.min_training_samples = 10;
  auto session = advisor.OpenTenant("pipe", tenant);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  uint64_t last_seq = session->snapshot()->sequence;
  for (int day = 0; day < 3; ++day) {
    telemetry::WorkloadView view = env.BuildDayView(day, &session->sis());
    auto report = session->RunPipelineDay(view);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->feature_gen.input_jobs, 0u);
    std::shared_ptr<const ServiceSnapshot> snap = session->snapshot();
    EXPECT_GT(snap->sequence, last_seq);
    EXPECT_EQ(snap->checksum, ServiceSnapshot::Fingerprint(*snap));
    last_seq = snap->sequence;
  }
  ASSERT_NE(session->pipeline(), nullptr);
}

}  // namespace
}  // namespace qo::service
