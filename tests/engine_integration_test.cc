// Integration: workload generation -> compile -> simulate, across many
// templates; plus A/A variance structure checks (the paper's Sec. 5.1 core
// observation that latency is noisy while PNhours and I/O bytes are stable).
#include <gtest/gtest.h>

#include "common/stats.h"
#include "engine/engine.h"
#include "workload/workload.h"

namespace qo {
namespace {

TEST(EngineIntegrationTest, AllGeneratedJobsCompileAndRun) {
  workload::WorkloadDriver driver(
      {.num_templates = 30, .jobs_per_day = 40, .seed = 7});
  engine::ScopeEngine engine;
  auto jobs = driver.DayJobs(0);
  ASSERT_EQ(jobs.size(), 40u);
  int ran = 0;
  for (const auto& job : jobs) {
    auto result = engine.Run(job, opt::RuleConfig::Default(), 0);
    ASSERT_TRUE(result.ok()) << job.job_id << ": " << result.status()
                             << "\nscript:\n"
                             << job.script;
    EXPECT_GT(result->metrics.latency_sec, 0.0) << job.job_id;
    EXPECT_GT(result->metrics.pn_hours, 0.0) << job.job_id;
    EXPECT_GT(result->metrics.vertices, 0) << job.job_id;
    EXPECT_GT(result->metrics.data_read_bytes, 0.0) << job.job_id;
    ++ran;
  }
  EXPECT_EQ(ran, 40);
}

TEST(EngineIntegrationTest, DayJobsAreDeterministic) {
  workload::WorkloadDriver driver({.num_templates = 10, .jobs_per_day = 10,
                                   .seed = 99});
  auto a = driver.DayJobs(3);
  auto b = driver.DayJobs(3);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job_id, b[i].job_id);
    EXPECT_EQ(a[i].script, b[i].script);
    EXPECT_EQ(a[i].run_seed, b[i].run_seed);
  }
}

TEST(EngineIntegrationTest, SameSaltReplaysIdentically) {
  workload::WorkloadDriver driver({.num_templates = 5, .jobs_per_day = 5,
                                   .seed = 11});
  engine::ScopeEngine engine;
  auto jobs = driver.DayJobs(0);
  auto r1 = engine.Run(jobs[0], opt::RuleConfig::Default(), 42);
  auto r2 = engine.Run(jobs[0], opt::RuleConfig::Default(), 42);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1->metrics.latency_sec, r2->metrics.latency_sec);
  EXPECT_DOUBLE_EQ(r1->metrics.pn_hours, r2->metrics.pn_hours);
}

TEST(EngineIntegrationTest, AAVarianceLatencyHighPnHoursBounded) {
  // Run each job 10 times (the paper's A/A protocol, Sec. 5.1) and compare
  // the coefficient of variation of latency vs PNhours.
  workload::WorkloadDriver driver(
      {.num_templates = 25, .jobs_per_day = 30, .seed = 1234});
  engine::ScopeEngine engine;
  auto jobs = driver.DayJobs(0);
  std::vector<double> latency_cv, pn_cv;
  for (const auto& job : jobs) {
    auto compiled = engine.CompileShared(job, opt::RuleConfig::Default());
    ASSERT_TRUE(compiled.ok());
    RunningStats lat, pn;
    for (uint64_t run = 0; run < 10; ++run) {
      auto m = engine.Execute(job, **compiled, run);
      lat.Add(m.latency_sec);
      pn.Add(m.pn_hours);
    }
    latency_cv.push_back(lat.cv());
    pn_cv.push_back(pn.cv());
  }
  // Fig. 3: the majority of jobs exceed 5% latency variance.
  EXPECT_GT(FractionAbove(latency_cv, 0.05), 0.7);
  // Fig. 5: PNhours is markedly more stable than latency.
  EXPECT_GT(Mean(latency_cv), Mean(pn_cv) * 2.0);
}

TEST(EngineIntegrationTest, IoBytesAreDeterministicAcrossAARuns) {
  workload::WorkloadDriver driver({.num_templates = 5, .jobs_per_day = 8,
                                   .seed = 5});
  engine::ScopeEngine engine;
  for (const auto& job : driver.DayJobs(0)) {
    auto compiled = engine.CompileShared(job, opt::RuleConfig::Default());
    ASSERT_TRUE(compiled.ok());
    auto m1 = engine.Execute(job, **compiled, 1);
    auto m2 = engine.Execute(job, **compiled, 2);
    // Sec. 4.3: "data read and data written remain constant" across runs.
    EXPECT_DOUBLE_EQ(m1.data_read_bytes, m2.data_read_bytes);
    EXPECT_DOUBLE_EQ(m1.data_written_bytes, m2.data_written_bytes);
  }
}

}  // namespace
}  // namespace qo
