// Workload generator and telemetry view tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "common/hash.h"
#include "engine/engine.h"
#include "scope/parser.h"
#include "telemetry/workload_view.h"
#include "workload/workload.h"

namespace qo::workload {
namespace {

TEST(TemplateGeneratorTest, GeneratesRequestedCount) {
  TemplateGenerator gen(1);
  auto templates = gen.Generate(25, 100);
  ASSERT_EQ(templates.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(templates[static_cast<size_t>(i)].id, 100 + i);
    EXPECT_FALSE(templates[static_cast<size_t>(i)].tables.empty());
    EXPECT_FALSE(templates[static_cast<size_t>(i)].outputs.empty());
  }
}

TEST(TemplateGeneratorTest, DeterministicForSeed) {
  TemplateGenerator a(7), b(7);
  auto ta = a.GenerateOne(3);
  auto tb = b.GenerateOne(3);
  EXPECT_EQ(ta.tables.size(), tb.tables.size());
  EXPECT_EQ(ta.selects.size(), tb.selects.size());
  EXPECT_EQ(ta.outputs, tb.outputs);
}

TEST(TemplateGeneratorTest, PopulationIsHeterogeneous) {
  TemplateGenerator gen(42);
  auto templates = gen.Generate(60);
  std::set<size_t> table_counts, select_counts;
  int with_union = 0, multi_output = 0, trivial = 0;
  for (const auto& t : templates) {
    table_counts.insert(t.tables.size());
    select_counts.insert(t.selects.size());
    with_union += !t.unions.empty();
    multi_output += t.outputs.size() > 1;
    bool has_structure = false;
    for (const auto& s : t.selects) {
      if (!s.filters.empty() || !s.joins.empty() || !s.group_by.empty()) {
        has_structure = true;
      }
    }
    trivial += !has_structure;
  }
  EXPECT_GT(table_counts.size(), 2u);
  EXPECT_GT(with_union, 0);
  EXPECT_GT(multi_output, 0);
  // About 30% trivial copy jobs (empty spans, paper Sec. 5.6 ~66% non-empty).
  EXPECT_GT(trivial, 6);
  EXPECT_LT(trivial, 36);
}

TEST(InstantiateTest, ScriptParsesAndStatsRegistered) {
  TemplateGenerator gen(5);
  JobTemplate tmpl = gen.GenerateOne(0);
  Rng rng(9);
  JobInstance inst = Instantiate(tmpl, 3, 1, &rng);
  EXPECT_EQ(inst.day, 3);
  EXPECT_EQ(inst.template_id, 0);
  auto parsed = scope::ParseScript(inst.script);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << inst.script;
  EXPECT_EQ(inst.catalog.size(), tmpl.tables.size());
  for (const auto& table : tmpl.tables) {
    EXPECT_TRUE(inst.catalog.Has(table.path));
  }
}

TEST(InstantiateTest, OccurrencesDriftButKeepStructure) {
  TemplateGenerator gen(5);
  JobTemplate tmpl = gen.GenerateOne(2);
  Rng rng(11);
  JobInstance a = Instantiate(tmpl, 0, 0, &rng);
  JobInstance b = Instantiate(tmpl, 1, 0, &rng);
  // Same operators (same statement skeleton)...
  auto pa = scope::ParseScript(a.script);
  auto pb = scope::ParseScript(b.script);
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_EQ(pa->statements.size(), pb->statements.size());
  // ...different input cardinalities (drifted stats).
  auto sa = a.catalog.Lookup(tmpl.tables[0].path);
  auto sb = b.catalog.Lookup(tmpl.tables[0].path);
  ASSERT_TRUE(sa.ok() && sb.ok());
  EXPECT_NE(sa.value()->true_rows, sb.value()->true_rows);
}

TEST(InstantiateTest, EstimatesAreBiasedNotExact) {
  TemplateGenerator gen(13);
  JobTemplate tmpl = gen.GenerateOne(1);
  Rng rng(3);
  JobInstance inst = Instantiate(tmpl, 0, 0, &rng);
  int differing = 0;
  for (const auto& table : tmpl.tables) {
    auto stats = inst.catalog.Lookup(table.path);
    ASSERT_TRUE(stats.ok());
    if (std::abs(stats.value()->est_rows - stats.value()->true_rows) >
        0.01 * stats.value()->true_rows) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(WorkloadDriverTest, RecurringFractionRoughlyRespected) {
  WorkloadDriver driver({.num_templates = 30, .jobs_per_day = 300,
                         .recurring_fraction = 0.65, .seed = 77});
  auto jobs = driver.DayJobs(0);
  int recurring = 0;
  for (const auto& j : jobs) recurring += j.recurring;
  double fraction = static_cast<double>(recurring) / jobs.size();
  EXPECT_GT(fraction, 0.55);
  EXPECT_LT(fraction, 0.75);
}

TEST(WorkloadDriverTest, OneOffJobsNeverRepeatAcrossDays) {
  WorkloadDriver driver({.num_templates = 5, .jobs_per_day = 50, .seed = 3});
  std::set<int> day0_ids, day1_ids;
  for (const auto& j : driver.DayJobs(0)) {
    if (!j.recurring) day0_ids.insert(j.template_id);
  }
  for (const auto& j : driver.DayJobs(1)) {
    if (!j.recurring) day1_ids.insert(j.template_id);
  }
  for (int id : day0_ids) EXPECT_EQ(day1_ids.count(id), 0u);
}

TEST(WorkloadDriverTest, RecurringTemplatesReappearAcrossDays) {
  WorkloadDriver driver({.num_templates = 10, .jobs_per_day = 80, .seed = 21});
  std::set<int> day0, day5;
  for (const auto& j : driver.DayJobs(0)) {
    if (j.recurring) day0.insert(j.template_id);
  }
  for (const auto& j : driver.DayJobs(5)) {
    if (j.recurring) day5.insert(j.template_id);
  }
  int shared = 0;
  for (int id : day0) shared += day5.count(id);
  EXPECT_GT(shared, 0);
}

// Digest of everything DayJobs produces for a fixed driver, built from
// strings and doubles only (never interned ids, which depend on what the
// process interned before): job ids, scripts, run seeds, each input table's
// true/est rows and average row bytes, and each column's NDVs looked up by
// name. Input paths and columns come from the script's own EXTRACT
// statements, so one-off jobs are covered like recurring ones. A change to
// instantiation that moves any draw, annotation or statistic moves it.
TEST(WorkloadDriverTest, DayJobsDigestIsPinned) {
  WorkloadDriver driver({.num_templates = 90, .jobs_per_day = 150,
                         .seed = 2022});
  uint64_t h = kFnvOffsetBasis;
  size_t jobs = 0, tables = 0, columns = 0;
  for (int day = 0; day < 10; ++day) {
    for (const JobInstance& job : driver.DayJobs(day)) {
      ++jobs;
      h = HashString(job.job_id, h);
      h = HashString(job.template_name, h);
      h = HashU64(static_cast<uint64_t>(job.template_id), h);
      h = HashU64(static_cast<uint64_t>(job.day), h);
      h = HashU64(job.recurring ? 1 : 0, h);
      h = HashU64(job.run_seed, h);
      h = HashString(job.script, h);
      auto parsed = scope::ParseScript(job.script);
      ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << job.script;
      for (const scope::Statement& stmt : parsed->statements) {
        if (stmt.kind != scope::StatementKind::kExtract) continue;
        const scope::ExtractStatement& ex = stmt.extract;
        auto stats = job.catalog.Lookup(ex.input_path);
        ASSERT_TRUE(stats.ok()) << ex.input_path;
        ++tables;
        h = HashString(ex.input_path, h);
        h = HashDouble(stats.value()->true_rows, h);
        h = HashDouble(stats.value()->est_rows, h);
        h = HashDouble(stats.value()->avg_row_bytes, h);
        for (const scope::Column& col : ex.columns) {
          ++columns;
          const scope::ColumnStats& cs =
              job.catalog.LookupColumn(ex.input_path, col.name);
          h = HashString(col.name, h);
          h = HashDouble(cs.true_ndv, h);
          h = HashDouble(cs.est_ndv, h);
        }
      }
    }
  }
  std::printf("DayJobs digest: %zu jobs, %zu tables, %zu columns, %016llx\n",
              jobs, tables, columns, static_cast<unsigned long long>(h));
  EXPECT_EQ(jobs, 1500u);
  EXPECT_EQ(tables, 3168u);
  EXPECT_EQ(columns, 26955u);
  EXPECT_EQ(h, 0x7a18f2f7f3302bedULL);
}

TEST(WorkloadViewTest, RowAggregatesTable1Features) {
  WorkloadDriver driver({.num_templates = 5, .jobs_per_day = 5, .seed = 2});
  engine::ScopeEngine engine;
  auto jobs = driver.DayJobs(0);
  auto result = engine.Run(jobs[0], opt::RuleConfig::Default(), 0);
  ASSERT_TRUE(result.ok());
  telemetry::WorkloadViewRow row =
      telemetry::MakeViewRow(jobs[0], *result->compilation, result->metrics);
  EXPECT_EQ(row.job_id, jobs[0].job_id);
  EXPECT_EQ(row.normalized_job_name, jobs[0].template_name);
  EXPECT_GT(row.est_cost, 0);
  EXPECT_GT(row.est_cardinalities, 0);   // summed over operators
  EXPECT_GT(row.row_count, 0);           // actual rows
  EXPECT_GT(row.avg_row_length, 0);
  EXPECT_GT(row.latency_sec, 0);
  EXPECT_GT(row.total_vertices, 0);
  EXPECT_GT(row.bytes_read, 0);
  EXPECT_GT(row.pn_hours, 0);
  EXPECT_EQ(row.rule_signature, result->compilation->signature);
  // The snapshot allows recompilation.
  EXPECT_EQ(row.instance.script, jobs[0].script);
}

}  // namespace
}  // namespace qo::workload
