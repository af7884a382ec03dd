// Flighting service and Stats & Insight Service tests.
#include <gtest/gtest.h>

#include "flighting/flighting.h"
#include "obs/metrics.h"
#include "sis/sis.h"
#include "workload/workload.h"

namespace qo {
namespace {

workload::JobInstance FirstJob(uint64_t seed = 4) {
  workload::WorkloadDriver driver(
      {.num_templates = 10, .jobs_per_day = 10, .seed = seed});
  return driver.DayJobs(0)[0];
}

TEST(FlightingTest, SuccessfulFlightReportsDeltas) {
  engine::ScopeEngine engine;
  flight::FlightingService service(&engine,
                                   {.failure_prob = 0, .filtered_prob = 0});
  flight::FlightRequest request;
  request.job = FirstJob();
  request.candidate = opt::RuleConfig::Default();
  auto result = service.FlightOne(request, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, flight::FlightOutcome::kSuccess);
  // A/B of identical configs: byte deltas must be exactly zero.
  EXPECT_DOUBLE_EQ(result->data_read_delta, 0.0);
  EXPECT_DOUBLE_EQ(result->data_written_delta, 0.0);
  EXPECT_DOUBLE_EQ(result->vertices_delta, 0.0);
  EXPECT_GT(result->machine_hours, 0.0);
  EXPECT_GT(service.budget_used_hours(), 0.0);
}

TEST(FlightingTest, EnvironmentalFailuresHappen) {
  engine::ScopeEngine engine;
  flight::FlightingService service(
      &engine, {.failure_prob = 1.0, .filtered_prob = 0, .seed = 1});
  flight::FlightRequest request;
  request.job = FirstJob();
  auto result = service.FlightOne(request, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, flight::FlightOutcome::kFailure);
  // Failures consume no machine time.
  EXPECT_DOUBLE_EQ(service.budget_used_hours(), 0.0);
}

TEST(FlightingTest, BudgetExhaustionStopsFlights) {
  engine::ScopeEngine engine;
  flight::FlightingConfig config;
  config.failure_prob = 0;
  config.filtered_prob = 0;
  config.total_budget_machine_hours = 1e-9;  // exhausted after one flight
  flight::FlightingService service(&engine, config);
  flight::FlightRequest request;
  request.job = FirstJob();
  ASSERT_TRUE(service.FlightOne(request, 1).ok());
  auto second = service.FlightOne(request, 2);
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsResourceExhausted());
  service.ResetBudget();
  EXPECT_TRUE(service.FlightOne(request, 3).ok());
}

TEST(FlightingTest, BatchRespectsQueueCapacityAndOrdersByPromise) {
  engine::ScopeEngine engine;
  flight::FlightingConfig config;
  config.failure_prob = 0;
  config.filtered_prob = 0;
  config.queue_capacity = 3;
  flight::FlightingService service(&engine, config);
  workload::WorkloadDriver driver(
      {.num_templates = 10, .jobs_per_day = 10, .seed = 5});
  auto jobs = driver.DayJobs(0);
  std::vector<flight::FlightRequest> requests;
  for (size_t i = 0; i < 5; ++i) {
    flight::FlightRequest r;
    r.job = jobs[i];
    // Reverse promise order; the service should flight the lowest deltas
    // first.
    r.est_cost_delta = -0.1 * static_cast<double>(i);
    requests.push_back(std::move(r));
  }
  auto results = service.FlightBatch(std::move(requests), 1);
  // Queue capacity truncated to 3 requests; the first 3 submitted are kept,
  // then ordered most-promising-first.
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].job_id, jobs[2].job_id);
}

TEST(FlightingTest, BatchReportsBudgetRejectedWhenBudgetRunsOut) {
  obs::Registry::Get().ZeroAllForTest();
  engine::ScopeEngine engine;
  flight::FlightingConfig config;
  config.failure_prob = 0;
  config.filtered_prob = 0;
  config.total_budget_machine_hours = 1e-9;
  flight::FlightingService service(&engine, config);
  workload::WorkloadDriver driver(
      {.num_templates = 10, .jobs_per_day = 10, .seed = 6});
  auto jobs = driver.DayJobs(0);
  std::vector<flight::FlightRequest> requests;
  for (size_t i = 0; i < 4; ++i) {
    flight::FlightRequest r;
    r.job = jobs[i];
    requests.push_back(std::move(r));
  }
  auto results = service.FlightBatch(std::move(requests), 1);
  ASSERT_EQ(results.size(), 4u);
  int rejected = 0;
  for (const auto& r : results) {
    rejected += r.outcome == flight::FlightOutcome::kBudgetRejected;
  }
  EXPECT_GE(rejected, 3);
  // "flight.timeout" keeps counting rejections with per-job timeouts.
  const obs::MetricsSnapshot snap = obs::Registry::Get().Snapshot();
  EXPECT_EQ(snap.SeriesValue("flight.timeout"), rejected);
  EXPECT_EQ(snap.SeriesValue("flight.timeout_per_job"), 0.0);
}

TEST(FlightingTest, AARunsProduceVaryingLatencies) {
  engine::ScopeEngine engine;
  flight::FlightingService service(&engine, {});
  auto metrics = service.RunAA(FirstJob(), opt::RuleConfig::Default(), 5, 3);
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->size(), 5u);
  std::set<double> latencies;
  for (const auto& m : *metrics) latencies.insert(m.latency_sec);
  EXPECT_GT(latencies.size(), 1u);
  // All runs read exactly the same bytes.
  for (const auto& m : *metrics) {
    EXPECT_DOUBLE_EQ(m.data_read_bytes, (*metrics)[0].data_read_bytes);
  }
}

TEST(FlightingTest, OutcomeNames) {
  EXPECT_STREQ(FlightOutcomeToString(flight::FlightOutcome::kSuccess),
               "success");
  EXPECT_STREQ(FlightOutcomeToString(flight::FlightOutcome::kFiltered),
               "filtered");
}

// ---------------------------------------------------------------------------
// SIS.
// ---------------------------------------------------------------------------

TEST(SisTest, HintFileRoundTrip) {
  sis::HintFile file;
  file.day = 17;
  file.entries.push_back({"TemplateA", opt::rules::kEagerAggregationLeft,
                          true});
  file.entries.push_back({"TemplateB", opt::rules::kJoinCommute, false});
  std::string text = file.Serialize();
  auto parsed = sis::HintFile::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->day, 17);
  ASSERT_EQ(parsed->entries.size(), 2u);
  EXPECT_EQ(parsed->entries[0].template_name, "TemplateA");
  EXPECT_TRUE(parsed->entries[0].enable);
  EXPECT_FALSE(parsed->entries[1].enable);
}

TEST(SisTest, ParseRejectsMalformedFiles) {
  EXPECT_FALSE(sis::HintFile::Parse("no header\n").ok());
  EXPECT_FALSE(sis::HintFile::Parse("# ok\nbadrow\n").ok());
  EXPECT_FALSE(sis::HintFile::Parse("# ok\na,1,sideways\n").ok());
}

TEST(SisTest, UploadValidatesEntries) {
  sis::StatsInsightService service;
  sis::HintFile ok_file;
  ok_file.entries.push_back(
      {"T1", opt::rules::kEagerAggregationLeft, true});
  EXPECT_TRUE(service.UploadHintFile(ok_file).ok());

  sis::HintFile bad_rule;
  bad_rule.entries.push_back({"T2", 999, true});
  EXPECT_FALSE(service.UploadHintFile(bad_rule).ok());

  sis::HintFile required_rule;
  required_rule.entries.push_back({"T2", opt::rules::kNormalizeScript, false});
  EXPECT_FALSE(service.UploadHintFile(required_rule).ok());

  sis::HintFile noop_hint;  // enabling an already-on rule
  noop_hint.entries.push_back({"T2", opt::rules::kHashJoinImpl, true});
  EXPECT_FALSE(service.UploadHintFile(noop_hint).ok());

  sis::HintFile duplicate;
  duplicate.entries.push_back({"T3", opt::rules::kJoinAssociativity, true});
  duplicate.entries.push_back({"T3", opt::rules::kEagerAggregationLeft, true});
  EXPECT_FALSE(service.UploadHintFile(duplicate).ok());

  // Failed uploads must not bump the version or install hints.
  EXPECT_EQ(service.current_version(), 1);
  EXPECT_EQ(service.active_hints(), 1u);
}

TEST(SisTest, NewestVersionWinsAndRevertWorks) {
  sis::StatsInsightService service;
  sis::HintFile v1;
  v1.entries.push_back({"T", opt::rules::kEagerAggregationLeft, true});
  ASSERT_TRUE(service.UploadHintFile(v1).ok());
  sis::HintFile v2;
  v2.entries.push_back({"T", opt::rules::kJoinAssociativity, true});
  ASSERT_TRUE(service.UploadHintFile(v2).ok());
  EXPECT_EQ(service.current_version(), 2);
  auto hint = service.LookupHint("T");
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(hint->rule_id, opt::rules::kJoinAssociativity);
  // The induced config is a single flip from default.
  auto config = service.ConfigForTemplate("T");
  EXPECT_EQ(config.DiffFromDefault(),
            std::vector<int>{opt::rules::kJoinAssociativity});
  // Revert ("easily reversible", paper Sec. 2.4).
  EXPECT_TRUE(service.RevertHint("T").ok());
  EXPECT_FALSE(service.LookupHint("T").has_value());
  EXPECT_EQ(service.ConfigForTemplate("T"), opt::RuleConfig::Default());
  EXPECT_TRUE(service.RevertHint("T").IsNotFound());
}

TEST(SisTest, ConfigForUnknownTemplateIsDefault) {
  sis::StatsInsightService service;
  EXPECT_EQ(service.ConfigForTemplate("nope"), opt::RuleConfig::Default());
}

}  // namespace
}  // namespace qo
