// Deterministic parallel runtime tests: sharded work queue scheduling,
// ordered commit determinism, budget-gate admission under contention, and
// the end-to-end guarantee — a pipeline day and a flight batch produce
// byte-identical results for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/feature_gen.h"
#include "core/pipeline.h"
#include "core/recommend.h"
#include "experiments/experiments.h"
#include "guard/fault_injector.h"
#include "obs/metrics.h"
#include "runtime/budget_gate.h"
#include "runtime/runtime.h"
#include "runtime/work_queue.h"

namespace qo {
namespace {

using runtime::BudgetGate;
using runtime::ParallelRuntime;
using runtime::RuntimeOptions;
using runtime::ShardedWorkQueue;

// ---------------------------------------------------------------------------
// ShardedWorkQueue.
// ---------------------------------------------------------------------------

TEST(WorkQueueTest, DispatchesBestPriorityFirstAcrossShards) {
  ShardedWorkQueue queue(8);
  std::vector<int> order;
  queue.Push(0, /*priority=*/2.0, [&] { order.push_back(2); });
  queue.Push(1, /*priority=*/0.5, [&] { order.push_back(0); });
  queue.Push(2, /*priority=*/1.0, [&] { order.push_back(1); });
  for (int i = 0; i < 3; ++i) {
    auto lease = queue.PopBlocking();
    ASSERT_TRUE(lease.has_value());
    lease->fn();
    queue.Release(lease->shard);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(WorkQueueTest, EqualPriorityRunsInSubmissionOrderWithinShard) {
  ShardedWorkQueue queue(4);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    queue.Push(/*shard_key=*/1, /*priority=*/0.0,
               [&order, i] { order.push_back(i); });
  }
  for (int i = 0; i < 6; ++i) {
    auto lease = queue.PopBlocking();
    ASSERT_TRUE(lease.has_value());
    lease->fn();
    queue.Release(lease->shard);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(WorkQueueTest, ShardNeverCheckedOutTwiceConcurrently) {
  // 4 shards, 64 tasks, 8 workers: per-shard concurrency must stay at 1 and
  // per-shard execution order must equal submission order.
  ShardedWorkQueue queue(4);
  std::atomic<int> in_shard[4] = {{0}, {0}, {0}, {0}};
  std::atomic<bool> overlap{false};
  std::mutex mu;
  std::vector<std::vector<int>> shard_order(4);
  for (int i = 0; i < 64; ++i) {
    uint64_t shard = static_cast<uint64_t>(i) % 4;
    queue.Push(shard, 0.0, [&, i, shard] {
      if (in_shard[shard].fetch_add(1) != 0) overlap = true;
      std::this_thread::yield();
      {
        std::lock_guard<std::mutex> lock(mu);
        shard_order[shard].push_back(i);
      }
      in_shard[shard].fetch_sub(1);
    });
  }
  queue.Close();
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&] {
      while (auto lease = queue.PopBlocking()) {
        lease->fn();
        queue.Release(lease->shard);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(overlap.load());
  for (int s = 0; s < 4; ++s) {
    ASSERT_EQ(shard_order[s].size(), 16u);
    for (size_t i = 1; i < shard_order[s].size(); ++i) {
      EXPECT_LT(shard_order[s][i - 1], shard_order[s][i]);
    }
  }
}

// ---------------------------------------------------------------------------
// ParallelRuntime ordered commit.
// ---------------------------------------------------------------------------

TEST(ParallelRuntimeTest, TransformOrderedMatchesSerialForAnyThreadCount) {
  auto run = [](int threads) {
    ParallelRuntime rt({.num_threads = threads});
    return rt.TransformOrdered<int>(
        100, [](size_t i) { return i % 7; },
        [](size_t i) { return static_cast<double>(100 - i); },
        [](size_t i) { return static_cast<int>(i * i); });
  };
  std::vector<int> serial = run(1);
  EXPECT_EQ(serial.size(), 100u);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelRuntimeTest, CommitsStreamInSubmissionOrder) {
  ParallelRuntime rt({.num_threads = 4});
  std::vector<size_t> committed;
  rt.ForEachOrdered<size_t>(
      50, [](size_t i) { return i; }, [](size_t) { return 0.0; },
      [](size_t i) { return i; },
      [&](size_t i, size_t&& r) {
        EXPECT_EQ(i, r);
        committed.push_back(i);
      });
  ASSERT_EQ(committed.size(), 50u);
  for (size_t i = 0; i < committed.size(); ++i) EXPECT_EQ(committed[i], i);
}

TEST(ParallelRuntimeTest, NestedFanOutRunsInlineWithoutDeadlock) {
  ParallelRuntime rt({.num_threads = 2});
  std::vector<int> outer = rt.TransformOrdered<int>(
      8, [](size_t i) { return i; }, [](size_t) { return 0.0; },
      [&rt](size_t i) {
        // A task fanning out on its own runtime must degrade to inline
        // execution instead of deadlocking the pool.
        std::vector<int> inner = rt.TransformOrdered<int>(
            4, [](size_t j) { return j; }, [](size_t) { return 0.0; },
            [](size_t j) { return static_cast<int>(j); });
        int sum = 0;
        for (int v : inner) sum += v;
        return static_cast<int>(i) * 10 + sum;
      });
  for (size_t i = 0; i < outer.size(); ++i) {
    EXPECT_EQ(outer[i], static_cast<int>(i) * 10 + 6);
  }
}

TEST(ParallelRuntimeTest, CommitExceptionsDrainRemainingTasksBeforeRethrow) {
  ParallelRuntime rt({.num_threads = 4});
  std::atomic<int> ran{0};
  size_t commits = 0;
  EXPECT_THROW(
      rt.ForEachOrdered<int>(
          32, [](size_t i) { return i; }, [](size_t) { return 0.0; },
          [&](size_t i) -> int {
            ran.fetch_add(1);
            return static_cast<int>(i);
          },
          [&](size_t i, int&&) {
            if (i == 3) throw std::runtime_error("commit boom");
            ++commits;
          }),
      std::runtime_error);
  // Every queued task completed before the rethrow (no dangling frame
  // references), and commits stopped at the failing index.
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(commits, 3u);
}

TEST(ParallelRuntimeTest, WorkExceptionsRethrowOnCaller) {
  ParallelRuntime rt({.num_threads = 4});
  size_t commits = 0;
  EXPECT_THROW(
      rt.ForEachOrdered<int>(
          16, [](size_t i) { return i; }, [](size_t) { return 0.0; },
          [](size_t i) -> int {
            if (i == 5) throw std::runtime_error("boom");
            return static_cast<int>(i);
          },
          [&](size_t, int&&) { ++commits; }),
      std::runtime_error);
  EXPECT_EQ(commits, 5u);  // commits stop at the failed index
}

// ---------------------------------------------------------------------------
// BudgetGate.
// ---------------------------------------------------------------------------

TEST(BudgetGateTest, StrictCommitNeverOverspends) {
  BudgetGate gate(10.0);
  EXPECT_TRUE(gate.TrySpend(6.0));
  EXPECT_FALSE(gate.TrySpend(5.0));  // 6 + 5 > 10
  EXPECT_TRUE(gate.TrySpend(4.0));   // exactly to the cap
  EXPECT_DOUBLE_EQ(gate.committed(), 10.0);
  EXPECT_TRUE(gate.Exhausted());
  gate.Reset();
  EXPECT_DOUBLE_EQ(gate.committed(), 0.0);
  EXPECT_TRUE(gate.Admissible());
}

TEST(BudgetGateTest, ReservationsSettleToCommitOrRefund) {
  BudgetGate gate(10.0);
  gate.Reserve(4.0);
  gate.Reserve(8.0);
  EXPECT_DOUBLE_EQ(gate.reserved(), 12.0);
  EXPECT_TRUE(gate.CommitReserved(4.0));
  EXPECT_FALSE(gate.CommitReserved(8.0));  // 4 + 8 > 10: refused, refunded
  EXPECT_DOUBLE_EQ(gate.reserved(), 0.0);
  EXPECT_DOUBLE_EQ(gate.committed(), 4.0);
  gate.Refund(0.0);
  EXPECT_DOUBLE_EQ(gate.reserved(), 0.0);
}

TEST(BudgetGateTest, LegacySpendMayOvershootButPreCheckCloses) {
  BudgetGate gate(1.0);
  EXPECT_TRUE(gate.Admissible());
  gate.Spend(3.0);  // legacy FlightOne path
  EXPECT_DOUBLE_EQ(gate.committed(), 3.0);
  EXPECT_TRUE(gate.Exhausted());
}

TEST(BudgetGateTest, ConcurrentStrictSpendsNeverExceedCapacity) {
  BudgetGate gate(100.0);
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        gate.Reserve(0.25);
        if (gate.CommitReserved(0.25)) admitted.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(gate.committed(), 100.0 + 1e-9);
  EXPECT_DOUBLE_EQ(gate.reserved(), 0.0);
  EXPECT_EQ(admitted.load(), 400);  // 100.0 / 0.25
}

// ---------------------------------------------------------------------------
// FlightBatch: serial vs parallel byte-identity + budget under contention.
// ---------------------------------------------------------------------------

std::vector<flight::FlightRequest> MakeRequests(size_t count, uint64_t seed) {
  workload::WorkloadDriver driver(
      {.num_templates = 12, .jobs_per_day = static_cast<int>(count),
       .seed = seed});
  auto jobs = driver.DayJobs(0);
  std::vector<flight::FlightRequest> requests;
  for (size_t i = 0; i < jobs.size(); ++i) {
    flight::FlightRequest r;
    r.job = jobs[i];
    r.candidate = opt::RuleConfig::Default();
    // Mixed promise ordering so the batch sort actually reorders.
    r.est_cost_delta = (i % 2 == 0 ? -1.0 : 1.0) * static_cast<double>(i);
    requests.push_back(std::move(r));
  }
  return requests;
}

void ExpectResultsIdentical(const std::vector<flight::FlightResult>& a,
                            const std::vector<flight::FlightResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << i;
    EXPECT_EQ(a[i].job_id, b[i].job_id) << i;
    EXPECT_EQ(a[i].baseline.latency_sec, b[i].baseline.latency_sec) << i;
    EXPECT_EQ(a[i].baseline.pn_hours, b[i].baseline.pn_hours) << i;
    EXPECT_EQ(a[i].candidate.latency_sec, b[i].candidate.latency_sec) << i;
    EXPECT_EQ(a[i].candidate.pn_hours, b[i].candidate.pn_hours) << i;
    EXPECT_EQ(a[i].pn_hours_delta, b[i].pn_hours_delta) << i;
    EXPECT_EQ(a[i].latency_delta, b[i].latency_delta) << i;
    EXPECT_EQ(a[i].vertices_delta, b[i].vertices_delta) << i;
    EXPECT_EQ(a[i].data_read_delta, b[i].data_read_delta) << i;
    EXPECT_EQ(a[i].data_written_delta, b[i].data_written_delta) << i;
    EXPECT_EQ(a[i].machine_hours, b[i].machine_hours) << i;
  }
}

TEST(FlightBatchParallelTest, ParallelBatchIsByteIdenticalToSerial) {
  engine::ScopeEngine engine;
  flight::FlightingConfig config;
  config.queue_capacity = 64;
  flight::FlightingService serial(&engine, config);
  auto serial_results = serial.FlightBatch(MakeRequests(24, 77), 5);

  for (int threads : {2, 8}) {
    ParallelRuntime rt({.num_threads = threads});
    flight::FlightingService parallel(&engine, config, &rt);
    auto parallel_results = parallel.FlightBatch(MakeRequests(24, 77), 5);
    ExpectResultsIdentical(serial_results, parallel_results);
    EXPECT_DOUBLE_EQ(parallel.budget_used_hours(),
                     serial.budget_used_hours());
  }
}

TEST(FlightBatchParallelTest, ConstrainedBudgetIsByteIdenticalToSerial) {
  engine::ScopeEngine engine;
  // Probe the unconstrained total, then re-run with ~40% of it so admission
  // decisions (including strict refusals) fire mid-batch.
  flight::FlightingConfig probe_config;
  probe_config.queue_capacity = 64;
  flight::FlightingService probe(&engine, probe_config);
  probe.FlightBatch(MakeRequests(24, 78), 9);
  double total = probe.budget_used_hours();
  ASSERT_GT(total, 0.0);

  flight::FlightingConfig config;
  config.queue_capacity = 64;
  config.total_budget_machine_hours = 0.4 * total;
  flight::FlightingService serial(&engine, config);
  auto serial_results = serial.FlightBatch(MakeRequests(24, 78), 9);
  size_t rejected = 0;
  for (const auto& r : serial_results) {
    rejected += r.outcome == flight::FlightOutcome::kBudgetRejected;
  }
  EXPECT_GT(rejected, 0u);  // the constraint actually bit

  ParallelRuntime rt({.num_threads = 8});
  flight::FlightingService parallel(&engine, config, &rt);
  auto parallel_results = parallel.FlightBatch(MakeRequests(24, 78), 9);
  ExpectResultsIdentical(serial_results, parallel_results);
  EXPECT_DOUBLE_EQ(parallel.budget_used_hours(), serial.budget_used_hours());
}

TEST(FlightBatchParallelTest, BatchNeverOverspendsBudgetUnderContention) {
  engine::ScopeEngine engine;
  flight::FlightingConfig probe_config;
  probe_config.queue_capacity = 128;
  flight::FlightingService probe(&engine, probe_config);
  probe.FlightBatch(MakeRequests(48, 79), 3);
  double total = probe.budget_used_hours();

  flight::FlightingConfig config;
  config.queue_capacity = 128;
  config.total_budget_machine_hours = 0.3 * total;
  ParallelRuntime rt({.num_threads = 8});
  flight::FlightingService service(&engine, config, &rt);
  auto results = service.FlightBatch(MakeRequests(48, 79), 3);
  EXPECT_EQ(results.size(), 48u);
  EXPECT_GT(service.budget_used_hours(), 0.0);
  EXPECT_LE(service.budget_used_hours(),
            config.total_budget_machine_hours + 1e-9);
  EXPECT_DOUBLE_EQ(service.budget_gate().reserved(), 0.0);
}

// ---------------------------------------------------------------------------
// Feature generation determinism.
// ---------------------------------------------------------------------------

void ExpectFeaturesEqual(const std::vector<advisor::JobFeatures>& a,
                         const std::vector<advisor::JobFeatures>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row.job_id, b[i].row.job_id);
    EXPECT_EQ(a[i].row.instance.script, b[i].row.instance.script);
    EXPECT_EQ(a[i].span, b[i].span);
    EXPECT_EQ(a[i].default_compilation->est_cost,
              b[i].default_compilation->est_cost);
  }
}

void ExpectFeatureStatsEqual(const advisor::FeatureGenStats& a,
                             const advisor::FeatureGenStats& b) {
  EXPECT_EQ(a.input_jobs, b.input_jobs);
  EXPECT_EQ(a.empty_span_dropped, b.empty_span_dropped);
  EXPECT_EQ(a.compile_failures, b.compile_failures);
  EXPECT_EQ(a.emitted, b.emitted);
}

TEST(RuntimeDeterminismTest, GenerateFeaturesParallelMatchesSerial) {
  experiments::ExperimentEnv env(
      {.num_templates = 12, .jobs_per_day = 24, .seed = 5, .threads = 1});
  telemetry::WorkloadView view = env.BuildDayView(0);
  advisor::FeatureGenStats serial_stats;
  auto serial = advisor::GenerateFeatures(env.engine(), view, &serial_stats);

  ParallelRuntime rt({.num_threads = 8});
  advisor::FeatureGenStats parallel_stats;
  auto parallel =
      advisor::GenerateFeatures(env.engine(), view, &parallel_stats, &rt);

  ExpectFeatureStatsEqual(serial_stats, parallel_stats);
  ExpectFeaturesEqual(serial, parallel);
}

// The recurring filter inside GenerateFeatures must see exactly what
// filtering the view up front would have handed it, serially and on a
// pool; without the filter every row is an input.
TEST(RuntimeDeterminismTest,
     GenerateFeaturesRecurringFilterMatchesFilteredView) {
  experiments::ExperimentEnv env(
      {.num_templates = 12, .jobs_per_day = 24, .seed = 5, .threads = 1});
  telemetry::WorkloadView view = env.BuildDayView(0);
  telemetry::WorkloadView recurring;
  recurring.day = view.day;
  for (const auto& row : view.rows) {
    if (row.recurring) recurring.rows.push_back(row);
  }
  // The filter must have something to drop for the comparison to mean
  // anything.
  ASSERT_LT(recurring.rows.size(), view.rows.size());
  ASSERT_FALSE(recurring.rows.empty());

  advisor::FeatureGenStats expected_stats;
  auto expected =
      advisor::GenerateFeatures(env.engine(), recurring, &expected_stats);
  ParallelRuntime rt({.num_threads = 4});
  for (ParallelRuntime* runtime : {static_cast<ParallelRuntime*>(nullptr),
                                   &rt}) {
    advisor::FeatureGenStats stats;
    auto features =
        advisor::GenerateFeatures(env.engine(), view, &stats, runtime,
                                  advisor::JobFilter::kRecurringOnly);
    EXPECT_EQ(stats.input_jobs, recurring.rows.size());
    ExpectFeatureStatsEqual(stats, expected_stats);
    ExpectFeaturesEqual(features, expected);

    advisor::FeatureGenStats all_stats;
    auto all = advisor::GenerateFeatures(env.engine(), view, &all_stats,
                                         runtime, advisor::JobFilter::kAll);
    EXPECT_EQ(all_stats.input_jobs, view.rows.size());
    EXPECT_EQ(all_stats.empty_span_dropped + all_stats.compile_failures +
                  all_stats.emitted,
              view.rows.size());
    EXPECT_GT(all_stats.emitted, stats.emitted);
  }
}

// ---------------------------------------------------------------------------
// Recommendation determinism: the streamed commit (bandit loop overlapping
// the workers' feature building and flip compiles) against the serial path.
// ---------------------------------------------------------------------------

struct RecommendRun {
  std::vector<std::vector<advisor::Recommendation>> forwarded;  ///< per day
  std::vector<advisor::RecommenderStats> stats;                 ///< per day
  size_t logged_events = 0;
  size_t rewarded_events = 0;
  double retrains = 0.0;
  bandit::PersonalizerService::OfflineEvaluation offline;
};

RecommendRun RunRecommendDays(
    const experiments::ExperimentEnv& env,
    const std::vector<std::vector<advisor::JobFeatures>>& days, int threads,
    const guard::FaultInjector* injector) {
  // threads == 0: no runtime at all (the null-runtime serial path).
  std::unique_ptr<ParallelRuntime> rt;
  if (threads > 0) {
    rt = std::make_unique<ParallelRuntime>(
        RuntimeOptions{.num_threads = threads});
  }
  const double retrains_before =
      obs::Registry::Get().Snapshot().SeriesValue("bandit.retrains");
  bandit::PersonalizerService personalizer(
      {.epsilon = 0.2, .seed = 41, .retrain_interval = 8});
  advisor::RecommenderConfig config;
  config.uniform_probes_per_job = 3;
  advisor::Recommender recommender(&env.engine(), &personalizer, config,
                                   injector);
  RecommendRun run;
  for (size_t day = 0; day < days.size(); ++day) {
    advisor::RecommenderStats stats;
    run.forwarded.push_back(recommender.RecommendDay(
        days[day], static_cast<int>(day), &stats, rt.get()));
    run.stats.push_back(stats);
  }
  run.logged_events = personalizer.logged_events();
  run.rewarded_events = personalizer.rewarded_events();
  run.retrains =
      obs::Registry::Get().Snapshot().SeriesValue("bandit.retrains") -
      retrains_before;
  auto offline = personalizer.EvaluateOffline();
  EXPECT_TRUE(offline.ok());
  if (offline.ok()) run.offline = *offline;
  return run;
}

void ExpectRecommendRunsEqual(const RecommendRun& a, const RecommendRun& b) {
  ASSERT_EQ(a.forwarded.size(), b.forwarded.size());
  for (size_t day = 0; day < a.forwarded.size(); ++day) {
    const auto& fa = a.forwarded[day];
    const auto& fb = b.forwarded[day];
    ASSERT_EQ(fa.size(), fb.size()) << "day " << day;
    for (size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].job_id, fb[i].job_id);
      EXPECT_EQ(fa[i].template_name, fb[i].template_name);
      EXPECT_EQ(fa[i].template_id, fb[i].template_id);
      EXPECT_EQ(fa[i].rule_id, fb[i].rule_id);
      EXPECT_EQ(fa[i].enable, fb[i].enable);
      EXPECT_EQ(fa[i].est_cost_default, fb[i].est_cost_default);
      EXPECT_EQ(fa[i].est_cost_new, fb[i].est_cost_new);
      EXPECT_EQ(fa[i].outcome, fb[i].outcome);
      EXPECT_EQ(fa[i].reward, fb[i].reward);
      EXPECT_EQ(fa[i].fault_injected, fb[i].fault_injected);
      EXPECT_EQ(fa[i].instance.job_id, fb[i].instance.job_id);
      EXPECT_EQ(fa[i].instance.script, fb[i].instance.script);
      EXPECT_EQ(fa[i].instance.run_seed, fb[i].instance.run_seed);
      EXPECT_EQ(fa[i].span, fb[i].span);
    }
    const advisor::RecommenderStats& sa = a.stats[day];
    const advisor::RecommenderStats& sb = b.stats[day];
    EXPECT_EQ(sa.jobs, sb.jobs);
    EXPECT_EQ(sa.lower_cost, sb.lower_cost);
    EXPECT_EQ(sa.equal_cost, sb.equal_cost);
    EXPECT_EQ(sa.higher_cost, sb.higher_cost);
    EXPECT_EQ(sa.recompile_failures, sb.recompile_failures);
    EXPECT_EQ(sa.noop_chosen, sb.noop_chosen);
    EXPECT_EQ(sa.forwarded, sb.forwarded);
    EXPECT_EQ(sa.reward_failures, sb.reward_failures);
    EXPECT_EQ(sa.faults_injected, sb.faults_injected);
    EXPECT_EQ(sa.rewards_dropped, sb.rewards_dropped);
  }
  EXPECT_EQ(a.logged_events, b.logged_events);
  EXPECT_EQ(a.rewarded_events, b.rewarded_events);
  EXPECT_EQ(a.retrains, b.retrains);
  EXPECT_EQ(a.offline.events, b.offline.events);
  EXPECT_EQ(a.offline.logged_average_reward, b.offline.logged_average_reward);
  EXPECT_EQ(a.offline.policy_ips_estimate, b.offline.policy_ips_estimate);
}

TEST(RuntimeDeterminismTest, RecommendDayParallelMatchesSerial) {
  experiments::ExperimentEnv env(
      {.num_templates = 16, .jobs_per_day = 60, .seed = 11, .threads = 1});
  std::vector<std::vector<advisor::JobFeatures>> days;
  for (int day = 0; day < 2; ++day) {
    days.push_back(advisor::GenerateFeatures(
        env.engine(), env.BuildDayView(day), nullptr, nullptr,
        advisor::JobFilter::kRecurringOnly));
    ASSERT_GE(days.back().size(), 10u);
  }
  guard::FaultInjector chaos({.seed = 9,
                              .compile_error_prob = 0.2,
                              .reward_drop_prob = 0.2});
  for (const guard::FaultInjector* injector :
       {static_cast<const guard::FaultInjector*>(nullptr),
        static_cast<const guard::FaultInjector*>(&chaos)}) {
    SCOPED_TRACE(injector == nullptr ? "no faults" : "armed injector");
    RecommendRun serial = RunRecommendDays(env, days, /*threads=*/0, injector);
    // Three probes per job at an 8-event retrain interval: retrains land
    // mid-day, so every later choice depends on the commit order.
    EXPECT_GT(serial.retrains, 2.0 * static_cast<double>(days.size()));
    size_t forwarded = 0;
    size_t faults = 0;
    size_t dropped = 0;
    for (const auto& s : serial.stats) {
      forwarded += s.forwarded;
      faults += s.faults_injected;
      dropped += s.rewards_dropped;
    }
    EXPECT_GT(forwarded, 0u);
    if (injector != nullptr) {
      EXPECT_GT(faults, 0u);
      EXPECT_GT(dropped, 0u);
    }
    for (int threads : {2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectRecommendRunsEqual(serial,
                               RunRecommendDays(env, days, threads, injector));
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end pipeline determinism: 1, 2 and 8 threads must produce
// identical day reports and identical SIS contents.
// ---------------------------------------------------------------------------

struct PipelineRunOutput {
  std::vector<advisor::PipelineDayReport> reports;
  std::vector<std::string> sis_files;  ///< serialized upload history
  size_t active_hints = 0;
};

PipelineRunOutput RunPipelineDays(int threads, int days) {
  experiments::ExperimentEnv env({.num_templates = 24,
                                  .jobs_per_day = 48,
                                  .seed = 31,
                                  .threads = threads});
  sis::StatsInsightService sis;
  advisor::PipelineConfig config;
  config.flighting.total_budget_machine_hours = 1e6;
  config.validation.min_training_samples = 10;
  config.recommender.uniform_probes_per_job = 3;
  config.personalizer.epsilon = 0.2;
  config.runtime.num_threads = threads;
  advisor::QoAdvisorPipeline pipeline(&env.engine(), &sis, config);
  PipelineRunOutput out;
  for (int day = 0; day < days; ++day) {
    auto report = pipeline.RunDay(env.BuildDayView(day, &sis));
    EXPECT_TRUE(report.ok());
    if (report.ok()) out.reports.push_back(*report);
  }
  for (const auto& file : sis.history()) {
    out.sis_files.push_back(file.Serialize());
  }
  out.active_hints = sis.active_hints();
  return out;
}

void ExpectReportsEqual(const advisor::PipelineDayReport& a,
                        const advisor::PipelineDayReport& b) {
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.feature_gen.input_jobs, b.feature_gen.input_jobs);
  EXPECT_EQ(a.feature_gen.empty_span_dropped, b.feature_gen.empty_span_dropped);
  EXPECT_EQ(a.feature_gen.compile_failures, b.feature_gen.compile_failures);
  EXPECT_EQ(a.feature_gen.emitted, b.feature_gen.emitted);
  EXPECT_EQ(a.recommender.jobs, b.recommender.jobs);
  EXPECT_EQ(a.recommender.lower_cost, b.recommender.lower_cost);
  EXPECT_EQ(a.recommender.equal_cost, b.recommender.equal_cost);
  EXPECT_EQ(a.recommender.higher_cost, b.recommender.higher_cost);
  EXPECT_EQ(a.recommender.recompile_failures, b.recommender.recompile_failures);
  EXPECT_EQ(a.recommender.noop_chosen, b.recommender.noop_chosen);
  EXPECT_EQ(a.recommender.forwarded, b.recommender.forwarded);
  EXPECT_EQ(a.flight_requests, b.flight_requests);
  EXPECT_EQ(a.flights_success, b.flights_success);
  EXPECT_EQ(a.flights_failure, b.flights_failure);
  EXPECT_EQ(a.flights_timeout, b.flights_timeout);
  EXPECT_EQ(a.flights_filtered, b.flights_filtered);
  EXPECT_EQ(a.validated, b.validated);
  EXPECT_EQ(a.hints_uploaded, b.hints_uploaded);
  EXPECT_EQ(a.flight_budget_used_hours, b.flight_budget_used_hours);
  EXPECT_EQ(a.validation_model_trained, b.validation_model_trained);
  // The canonical rendering covers every counter, guard fields included.
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(RuntimeDeterminismTest, PipelineDayRunsIdenticalAcrossThreadCounts) {
  const int kDays = 3;
  PipelineRunOutput serial = RunPipelineDays(1, kDays);
  ASSERT_EQ(serial.reports.size(), static_cast<size_t>(kDays));
  for (int threads : {2, 8}) {
    PipelineRunOutput parallel = RunPipelineDays(threads, kDays);
    ASSERT_EQ(parallel.reports.size(), serial.reports.size());
    for (size_t d = 0; d < serial.reports.size(); ++d) {
      ExpectReportsEqual(serial.reports[d], parallel.reports[d]);
    }
    // SIS contents — the pipeline's externally visible output — must be
    // byte-identical.
    EXPECT_EQ(serial.sis_files, parallel.sis_files);
    EXPECT_EQ(serial.active_hints, parallel.active_hints);
  }
}

}  // namespace
}  // namespace qo
