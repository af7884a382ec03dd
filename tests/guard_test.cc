// Guardrail layer tests: fault-injector determinism, hint-file parse
// hardening against injected corruption, watchdog revert/quarantine
// goldens, circuit-breaker state machine, and full-pipeline chaos
// determinism across thread counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.h"
#include "core/pipeline.h"
#include "experiments/experiments.h"
#include "guard/fault_injector.h"
#include "guard/guardrail.h"
#include "obs/metrics.h"
#include "optimizer/rules.h"
#include "sis/sis.h"
#include "telemetry/workload_view.h"

namespace qo {
namespace {

/// The registry series `name` (0 before its first event).
double Series(const char* name) {
  return obs::Registry::Get().Snapshot().SeriesValue(name);
}

// ---------------------------------------------------------------------------
// Fault injector: pure, seeded, call-order independent.
// ---------------------------------------------------------------------------

guard::FaultConfig AllSitesConfig(uint64_t seed, double p) {
  guard::FaultConfig c;
  c.seed = seed;
  c.compile_error_prob = p;
  c.flight_failure_prob = p;
  c.flight_timeout_prob = p;
  c.hint_corrupt_prob = p;
  c.reward_drop_prob = p;
  c.telemetry_drop_prob = p;
  c.hint_regression_prob = p;
  return c;
}

TEST(FaultInjectorTest, UnarmedNeverFires) {
  guard::FaultInjector off({.seed = 42});
  EXPECT_FALSE(off.armed());
  for (int day = 0; day < 10; ++day) {
    for (uint64_t key = 0; key < 50; ++key) {
      EXPECT_FALSE(off.ShouldInject(guard::FaultSite::kCompile, day, key));
    }
  }
  // A probability arms it; the seed alone does not.
  EXPECT_TRUE(guard::FaultInjector(AllSitesConfig(42, 0.1)).armed());
}

TEST(FaultInjectorTest, DecisionsArePureAndSeeded) {
  guard::FaultInjector a(AllSitesConfig(7, 0.3));
  guard::FaultInjector b(AllSitesConfig(7, 0.3));
  guard::FaultInjector c(AllSitesConfig(8, 0.3));
  size_t fired = 0, seed_diffs = 0;
  for (int day = 0; day < 5; ++day) {
    for (uint64_t key = 0; key < 200; ++key) {
      bool va = a.ShouldInject(guard::FaultSite::kFlightFailure, day, key);
      // Interleave unrelated queries on `b`: decisions must not depend on
      // call order (they are hashes, not sequential draws).
      b.ShouldInject(guard::FaultSite::kCompile, day + 3, key * 17);
      bool vb = b.ShouldInject(guard::FaultSite::kFlightFailure, day, key);
      EXPECT_EQ(va, vb);
      fired += va;
      seed_diffs +=
          va != c.ShouldInject(guard::FaultSite::kFlightFailure, day, key);
    }
  }
  // The rate tracks the probability loosely (1000 draws at p=0.3).
  EXPECT_GT(fired, 200u);
  EXPECT_LT(fired, 400u);
  // A different seed places faults elsewhere.
  EXPECT_GT(seed_diffs, 0u);
}

TEST(FaultInjectorTest, StringKeysHashLikeIntegerKeys) {
  guard::FaultInjector inj(AllSitesConfig(13, 0.5));
  EXPECT_EQ(inj.ShouldInject(guard::FaultSite::kTelemetry, 2, "job_1"),
            inj.ShouldInject(guard::FaultSite::kTelemetry, 2,
                             HashString("job_1")));
  // Different sites decide independently for the same (day, key).
  bool any_diff = false;
  for (uint64_t key = 0; key < 64 && !any_diff; ++key) {
    any_diff = inj.ShouldInject(guard::FaultSite::kCompile, 0, key) !=
               inj.ShouldInject(guard::FaultSite::kRewardJoin, 0, key);
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// Hint-file hardening: strict parse + corruption corpus.
// ---------------------------------------------------------------------------

sis::HintFile SampleHintFile() {
  sis::HintFile file;
  file.day = 12;
  file.entries.push_back({"tpl_a", opt::rules::kEagerAggregationLeft, true});
  file.entries.push_back({"tpl_b", opt::rules::kJoinAssociativity, true});
  return file;
}

TEST(HintFileHardeningTest, SerializeParseRoundTrips) {
  sis::HintFile file = SampleHintFile();
  auto parsed = sis::HintFile::Parse(file.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->day, file.day);
  ASSERT_EQ(parsed->entries.size(), file.entries.size());
  for (size_t i = 0; i < file.entries.size(); ++i) {
    EXPECT_EQ(parsed->entries[i].template_name, file.entries[i].template_name);
    EXPECT_EQ(parsed->entries[i].rule_id, file.entries[i].rule_id);
    EXPECT_EQ(parsed->entries[i].enable, file.entries[i].enable);
  }
  // Round-trip fixpoint: parse(serialize(x)).serialize == serialize(x).
  EXPECT_EQ(parsed->Serialize(), file.Serialize());
}

TEST(HintFileHardeningTest, RejectsMalformedInput) {
  const std::string header = "# qo-advisor hints day=3\n";
  const char* bad[] = {
      "",                                    // empty: no header
      "tpl,1,on\n",                          // row before header
      "# qo-advisor hints\ntpl,1,on\n",      // header without day=
      "# qo-advisor hints day=x\n",          // non-numeric day
      "# qo-advisor hints day=99999999999\n",  // day overflow
  };
  for (const char* text : bad) {
    EXPECT_FALSE(sis::HintFile::Parse(text).ok()) << text;
  }
  const char* bad_rows[] = {
      "tpl_on\n",              // no commas
      "tpl,1\n",               // two fields
      "tpl,1,on,extra\n",      // four fields
      ",1,on\n",               // empty template
      "tpl,,on\n",             // empty rule id
      "tpl,9999,on\n",         // rule id out of range
      "tpl,1x,on\n",           // trailing garbage in rule id
      "tpl,-1,on\n",           // negative rule id
      "tpl,1,maybe\n",         // bad direction
      "tpl,1,on\ntpl,2,off\n"  // same template twice
  };
  for (const char* rows : bad_rows) {
    EXPECT_FALSE(sis::HintFile::Parse(header + rows).ok()) << rows;
  }
  EXPECT_FALSE(sis::HintFile::Parse(header + header).ok());  // dup header
}

TEST(HintFileHardeningTest, CorruptionCorpusIsNeverSilentlyInstalled) {
  guard::FaultConfig fc;
  fc.seed = 99;
  fc.hint_corrupt_prob = 1.0;
  guard::FaultInjector inj(fc);
  sis::HintFile file = SampleHintFile();
  std::string original = file.Serialize();
  size_t rejected = 0;
  for (int day = 0; day < 8; ++day) {
    std::string corrupt = inj.CorruptHintText(original, day);
    EXPECT_NE(corrupt, original);  // the mangle always changes the bytes
    auto parsed = sis::HintFile::Parse(corrupt);
    if (!parsed.ok()) {
      ++rejected;
      continue;
    }
    // A corrupt file that still parses (e.g. clean truncation at a row
    // boundary) must be a strict subset, never invented entries.
    EXPECT_LE(parsed->entries.size(), file.entries.size());
    for (const auto& e : parsed->entries) {
      EXPECT_LT(e.rule_id, opt::RuleRegistry::kNumRules);
    }
  }
  // The corpus covers parse-rejecting mutations.
  EXPECT_GT(rejected, 0u);
}

TEST(SisHistoryTest, RetentionBoundsHistoryWithoutTouchingCounters) {
  sis::StatsInsightService sis({.history_retention = 3});
  for (int i = 0; i < 10; ++i) {
    sis::HintFile f;
    f.day = i;
    f.entries.push_back({"tpl_" + std::to_string(i),
                         opt::rules::kEagerAggregationLeft, true});
    ASSERT_TRUE(sis.UploadHintFile(f).ok());
  }
  EXPECT_EQ(sis.history().size(), 3u);
  EXPECT_EQ(sis.history_dropped(), 7u);
  EXPECT_EQ(sis.history().front().day, 7);
  // Version and monotonic counters are unaffected by trimming.
  EXPECT_EQ(sis.current_version(), 10);
  EXPECT_EQ(sis.total_hints_uploaded(), 10u);
  EXPECT_EQ(sis.active_hints(), 10u);
  // Default config keeps the old unbounded-ish behavior.
  EXPECT_EQ(sis::SisConfig{}.history_retention, 128u);
}

// ---------------------------------------------------------------------------
// Watchdog: revert + quarantine goldens on synthetic views.
// ---------------------------------------------------------------------------

telemetry::WorkloadView MakeDay(int day, const std::string& tpl, double pn,
                                int copies) {
  telemetry::WorkloadView view;
  view.day = day;
  for (int i = 0; i < copies; ++i) {
    telemetry::WorkloadViewRow row;
    row.job_id = tpl + "_j" + std::to_string(i);
    row.normalized_job_name = tpl;
    row.day = day;
    row.pn_hours = pn;
    view.rows.push_back(std::move(row));
  }
  return view;
}

TEST(HintWatchdogTest, RevertsSustainedRegressionAndQuarantines) {
  obs::Registry::Get().ZeroAllForTest();
  sis::StatsInsightService sis;
  guard::HintWatchdog dog(
      {.regress_threshold = 0.25, .min_samples = 2, .hysteresis_days = 2,
       .quarantine_days = 14, .baseline_window = 8});

  // Days 0-2: un-hinted baseline at 1.0 PNhours.
  for (int day = 0; day < 3; ++day) {
    EXPECT_TRUE(dog.ObserveDay(MakeDay(day, "T", 1.0, 3), &sis).empty());
  }

  // A hint lands; the template starts regressing +50%.
  sis::HintFile hint;
  hint.day = 3;
  hint.entries.push_back({"T", opt::rules::kEagerAggregationLeft, true});
  ASSERT_TRUE(sis.UploadHintFile(hint).ok());

  // Day 3: first regressing day — inside hysteresis, no revert yet.
  EXPECT_TRUE(dog.ObserveDay(MakeDay(3, "T", 1.5, 3), &sis).empty());
  ASSERT_TRUE(sis.LookupHint("T").has_value());

  // Day 4: second consecutive regressing day — revert fires.
  auto actions = dog.ObserveDay(MakeDay(4, "T", 1.5, 3), &sis);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].template_name, "T");
  EXPECT_EQ(actions[0].rule_id, opt::rules::kEagerAggregationLeft);
  EXPECT_EQ(actions[0].day, 4);
  EXPECT_NEAR(actions[0].regression, 0.5, 1e-9);
  EXPECT_FALSE(sis.LookupHint("T").has_value());
  EXPECT_EQ(sis.hints_reverted(), 1u);
  EXPECT_EQ(Series("guard.watchdog_reverts"), 1.0);
  EXPECT_EQ(Series("guard.watchdog_quarantines"), 1.0);

  // The quarantine blocks the pair until day 4 + 14.
  EXPECT_TRUE(dog.Quarantined("T", opt::rules::kEagerAggregationLeft, 5));
  EXPECT_TRUE(dog.Quarantined("T", opt::rules::kEagerAggregationLeft, 17));
  EXPECT_FALSE(dog.Quarantined("T", opt::rules::kEagerAggregationLeft, 18));
  EXPECT_FALSE(dog.Quarantined("T", opt::rules::kJoinAssociativity, 5));
  EXPECT_EQ(dog.ActiveQuarantines(5), 1u);
  EXPECT_EQ(dog.ActiveQuarantines(18), 0u);
}

TEST(HintWatchdogTest, HysteresisResetsOnRecoveryAndRespectsMinSamples) {
  sis::StatsInsightService sis;
  guard::HintWatchdog dog({.regress_threshold = 0.25, .min_samples = 2,
                           .hysteresis_days = 2});
  for (int day = 0; day < 3; ++day) {
    dog.ObserveDay(MakeDay(day, "T", 1.0, 3), &sis);
  }
  sis::HintFile hint;
  hint.entries.push_back({"T", opt::rules::kEagerAggregationLeft, true});
  ASSERT_TRUE(sis.UploadHintFile(hint).ok());

  // Regressing, then recovered, then regressing: hysteresis restarts, so
  // no revert on the second regressing day after a recovery.
  EXPECT_TRUE(dog.ObserveDay(MakeDay(3, "T", 1.5, 3), &sis).empty());
  EXPECT_TRUE(dog.ObserveDay(MakeDay(4, "T", 1.0, 3), &sis).empty());
  EXPECT_TRUE(dog.ObserveDay(MakeDay(5, "T", 1.5, 3), &sis).empty());
  // An under-sampled day (1 run < min_samples=2) does not vote at all — it
  // neither advances nor resets the hysteresis counter.
  EXPECT_TRUE(dog.ObserveDay(MakeDay(6, "T", 9.0, 1), &sis).empty());
  ASSERT_TRUE(sis.LookupHint("T").has_value());
  // Day 5 was the first qualifying regressing vote; day 7 is the second, so
  // the revert fires here (the silent day 6 did not break the streak).
  EXPECT_EQ(dog.ObserveDay(MakeDay(7, "T", 1.5, 3), &sis).size(), 1u);
  EXPECT_FALSE(sis.LookupHint("T").has_value());
}

// ---------------------------------------------------------------------------
// Circuit breaker: trip, probation, half-open probe, re-arm / re-trip.
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, TripProbationProbeAndRearm) {
  guard::CircuitBreaker breaker(
      {.failure_rate_threshold = 0.5, .min_events = 4, .probation_days = 2});
  // Day 0: 3 failures of 4 => 75% >= 50% with enough events: trips.
  for (int i = 0; i < 4; ++i) breaker.Record(i < 3);
  EXPECT_TRUE(breaker.CloseDay(0));
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 1u);
  // Probation: days 1-2 disallowed, day 3 is the half-open probe.
  EXPECT_FALSE(breaker.AllowSteering(1));
  EXPECT_FALSE(breaker.AllowSteering(2));
  EXPECT_TRUE(breaker.AllowSteering(3));
  breaker.CloseDay(1);
  breaker.CloseDay(2);
  // Probe day succeeds: breaker re-arms.
  breaker.Record(false);
  EXPECT_FALSE(breaker.CloseDay(3));
  EXPECT_FALSE(breaker.open());
  EXPECT_TRUE(breaker.AllowSteering(4));
}

TEST(CircuitBreakerTest, FailedProbeRetrips) {
  guard::CircuitBreaker breaker(
      {.failure_rate_threshold = 0.5, .min_events = 4, .probation_days = 2});
  for (int i = 0; i < 4; ++i) breaker.Record(true);
  EXPECT_TRUE(breaker.CloseDay(0));
  breaker.CloseDay(1);
  breaker.CloseDay(2);
  // Probe day fails: re-trip, new probation window.
  breaker.Record(true);
  EXPECT_TRUE(breaker.CloseDay(3));
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_FALSE(breaker.AllowSteering(4));
  EXPECT_FALSE(breaker.AllowSteering(5));
  EXPECT_TRUE(breaker.AllowSteering(6));
  // A probe day with zero traffic leaves the breaker half-open.
  breaker.CloseDay(4);
  breaker.CloseDay(5);
  EXPECT_FALSE(breaker.CloseDay(6));
  EXPECT_TRUE(breaker.open());
  EXPECT_TRUE(breaker.AllowSteering(7));  // still probing
  // Below min_events a bad day cannot trip a closed breaker.
  guard::CircuitBreaker calm(
      {.failure_rate_threshold = 0.5, .min_events = 4, .probation_days = 2});
  calm.Record(true);
  calm.Record(true);
  EXPECT_FALSE(calm.CloseDay(0));
  EXPECT_FALSE(calm.open());
}

// ---------------------------------------------------------------------------
// Full-pipeline chaos determinism: same fault seed => byte-identical day
// reports, SIS uploads and guard telemetry at any thread count.
// ---------------------------------------------------------------------------

guard::FaultConfig ChaosFaults() {
  guard::FaultConfig f;
  f.seed = 1337;
  f.compile_error_prob = 0.05;
  f.flight_failure_prob = 0.10;
  f.flight_timeout_prob = 0.05;
  f.hint_corrupt_prob = 0.25;
  f.reward_drop_prob = 0.05;
  f.telemetry_drop_prob = 0.03;
  f.hint_regression_prob = 0.30;
  f.hint_regression_factor = 1.8;
  return f;
}

struct ChaosRunOutput {
  std::vector<std::string> report_lines;
  std::vector<std::string> sis_files;
  int sis_version = 0;
  std::string guardrails;
  double faults_injected = 0.0;
};

ChaosRunOutput RunChaosPipeline(int threads, int days) {
  // The guard counters are process-wide: start each run from zero.
  obs::Registry::Get().ZeroAllForTest();
  experiments::ExperimentConfig econfig{.num_templates = 24,
                                        .jobs_per_day = 48,
                                        .seed = 31,
                                        .threads = threads};
  econfig.faults = ChaosFaults();
  experiments::ExperimentEnv env(econfig);
  sis::StatsInsightService sis;
  advisor::PipelineConfig config;
  config.flighting.total_budget_machine_hours = 1e6;
  config.validation.min_training_samples = 10;
  config.recommender.uniform_probes_per_job = 3;
  config.personalizer.epsilon = 0.2;
  config.runtime.num_threads = threads;
  config.guard.enabled = true;
  config.guard.faults = ChaosFaults();
  advisor::QoAdvisorPipeline pipeline(&env.engine(), &sis, config);
  ChaosRunOutput out;
  for (int day = 0; day < days; ++day) {
    auto report = pipeline.RunDay(env.BuildDayView(day, &sis));
    EXPECT_TRUE(report.ok());
    if (report.ok()) out.report_lines.push_back(report->ToString());
  }
  for (const auto& file : sis.history()) {
    out.sis_files.push_back(file.Serialize());
  }
  out.sis_version = sis.current_version();
  const obs::MetricsSnapshot snap = obs::Registry::Get().Snapshot();
  out.guardrails = guard::GuardrailsText(snap);
  for (const char* fault :
       {"guard.faults_compile", "guard.faults_flight", "guard.faults_hint_file",
        "guard.faults_reward_drop", "guard.faults_telemetry_drop"}) {
    out.faults_injected += snap.SeriesValue(fault);
  }
  return out;
}

TEST(ChaosDeterminismTest, SameSeedIsByteIdenticalAcrossThreadCounts) {
  const int kDays = 6;
  ChaosRunOutput serial = RunChaosPipeline(1, kDays);
  ASSERT_EQ(serial.report_lines.size(), static_cast<size_t>(kDays));
  // The chaos config actually bites: faults were injected somewhere.
  EXPECT_GT(serial.faults_injected, 0.0);
  ChaosRunOutput parallel = RunChaosPipeline(4, kDays);
  EXPECT_EQ(serial.report_lines, parallel.report_lines);
  EXPECT_EQ(serial.sis_files, parallel.sis_files);
  EXPECT_EQ(serial.sis_version, parallel.sis_version);
  EXPECT_EQ(serial.guardrails, parallel.guardrails);
}

TEST(ChaosDeterminismTest, SameSeedTwiceIsByteIdentical) {
  ChaosRunOutput a = RunChaosPipeline(2, 4);
  ChaosRunOutput b = RunChaosPipeline(2, 4);
  EXPECT_EQ(a.report_lines, b.report_lines);
  EXPECT_EQ(a.sis_files, b.sis_files);
  EXPECT_EQ(a.guardrails, b.guardrails);
}

// ---------------------------------------------------------------------------
// End-to-end guard demo: a deliberately-regressing hint is detected,
// auto-reverted within the hysteresis window, and quarantined.
// ---------------------------------------------------------------------------

TEST(GuardPipelineTest, RegressingHintIsAutoRevertedAndQuarantined) {
  obs::Registry::Get().ZeroAllForTest();
  experiments::ExperimentConfig econfig{.num_templates = 16,
                                        .jobs_per_day = 48,
                                        .seed = 5,
                                        .threads = 2};
  // Every hinted template regresses hard in production; nothing else fails.
  // The factor must overwhelm the hint's genuine improvement (validated
  // flips often halve PNhours here) plus the 25% watchdog threshold.
  econfig.faults.seed = 7;
  econfig.faults.hint_regression_prob = 1.0;
  econfig.faults.hint_regression_factor = 6.0;
  experiments::ExperimentEnv env(econfig);
  sis::StatsInsightService sis;
  advisor::PipelineConfig config;
  config.flighting.total_budget_machine_hours = 1e6;
  config.validation.min_training_samples = 10;
  config.recommender.uniform_probes_per_job = 3;
  config.personalizer.epsilon = 0.2;
  config.runtime.num_threads = 2;
  config.guard.enabled = true;
  advisor::QoAdvisorPipeline pipeline(&env.engine(), &sis, config);

  size_t total_reverted = 0;
  int first_hint_day = -1, first_revert_day = -1;
  for (int day = 0; day < 14; ++day) {
    auto report = pipeline.RunDay(env.BuildDayView(day, &sis));
    ASSERT_TRUE(report.ok()) << report.status();
    if (first_hint_day < 0 && report->hints_uploaded > 0) {
      first_hint_day = day;
    }
    if (first_revert_day < 0 && report->hints_reverted > 0) {
      first_revert_day = day;
    }
    total_reverted += report->hints_reverted;
  }
  // Hints were deployed, regressed (factor 2.0 >> threshold 0.25), and the
  // watchdog reverted them within the hysteresis window.
  ASSERT_GE(first_hint_day, 0) << "pipeline never produced a hint";
  ASSERT_GT(total_reverted, 0u) << "watchdog never reverted";
  EXPECT_GE(first_revert_day,
            first_hint_day + config.guard.watchdog.hysteresis_days);
  const auto& dog = pipeline.steering_guard().watchdog();
  EXPECT_EQ(Series("guard.watchdog_reverts"), total_reverted);
  EXPECT_GT(Series("guard.watchdog_quarantines"), 0.0);
  EXPECT_GT(env.regressions_injected(), 0u);
  // Quarantined pairs stayed blocked: the guard counters saw the pipeline
  // refuse to re-recommend at least one of them, or the cool-down simply
  // outlived the run — either way the pair is still quarantined now.
  EXPECT_GT(dog.ActiveQuarantines(13), 0u);
  EXPECT_EQ(sis.hints_reverted(), total_reverted);
}

// Net impact stays non-negative under a 10% injected flight-failure rate:
// the retry path recovers most transient failures and validation filters
// the rest, so chaos must not turn steering harmful.
TEST(GuardPipelineTest, FlightChaosDoesNotMakeSteeringHarmful) {
  experiments::ExperimentConfig econfig{.num_templates = 24,
                                        .jobs_per_day = 60,
                                        .seed = 11,
                                        .threads = 2};
  econfig.faults.seed = 23;
  econfig.faults.flight_failure_prob = 0.10;
  experiments::ExperimentEnv env(econfig);
  sis::StatsInsightService sis;
  advisor::PipelineConfig config;
  config.flighting.total_budget_machine_hours = 1e6;
  config.validation.min_training_samples = 10;
  config.recommender.uniform_probes_per_job = 3;
  config.personalizer.epsilon = 0.2;
  config.runtime.num_threads = 2;
  config.guard.enabled = true;
  config.guard.faults = econfig.faults;
  advisor::QoAdvisorPipeline pipeline(&env.engine(), &sis, config);
  size_t retries = 0, recovered = 0, faults = 0, hints = 0;
  for (int day = 0; day < 14; ++day) {
    auto report = pipeline.RunDay(env.BuildDayView(day, &sis));
    ASSERT_TRUE(report.ok()) << report.status();
    retries += report->flight_retries;
    recovered += report->flights_recovered;
    faults += report->faults_injected;
    hints += report->hints_uploaded;
  }
  EXPECT_GT(faults, 0u) << "chaos config never injected a flight fault";
  EXPECT_GT(retries, 0u);
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(hints, 0u) << "pipeline never deployed a hint under chaos";

  // Hinted vs default on matching jobs of held-out days: the net PNhours
  // delta must not be a regression (hints only land after validation, and
  // the watchdog guards the rest).
  double hinted_total = 0.0, default_total = 0.0;
  for (int day = 14; day < 16; ++day) {
    telemetry::WorkloadView hinted = env.BuildDayView(day, &sis);
    telemetry::WorkloadView plain = env.BuildDayView(day);
    ASSERT_EQ(hinted.rows.size(), plain.rows.size());
    for (size_t i = 0; i < hinted.rows.size(); ++i) {
      if (!sis.LookupHint(hinted.rows[i].normalized_job_name).has_value()) {
        continue;
      }
      hinted_total += hinted.rows[i].pn_hours;
      default_total += plain.rows[i].pn_hours;
    }
  }
  EXPECT_GT(default_total, 0.0) << "no hinted template matched on eval days";
  EXPECT_LE(hinted_total, default_total + 1e-9)
      << "steering under chaos regressed net PNhours";
}

}  // namespace
}  // namespace qo
