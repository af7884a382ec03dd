// Unit and property tests for the common layer: Status/Result, BitVector256,
// Rng, and the statistics toolkit.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/bitvector.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/symbol_table.h"
#include "common/table_printer.h"

namespace qo {
namespace {

// ---------------------------------------------------------------------------
// Status / Result.
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad");
  EXPECT_TRUE(Status::CompileError("x").IsCompileError());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Timeout("x").IsTimeout());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnsupported); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Status UseParse(int x, int* out) {
  QO_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  *out = doubled;
  return Status::OK();
}

TEST(ResultTest, ValueAndErrorPaths) {
  auto good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(-1), 42);

  auto bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(-1), -1);

  int out = 0;
  EXPECT_TRUE(UseParse(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseParse(0, &out).ok());
}

// ---------------------------------------------------------------------------
// BitVector256.
// ---------------------------------------------------------------------------

TEST(BitVectorTest, SetClearFlipTest) {
  BitVector256 v;
  EXPECT_TRUE(v.None());
  v.Set(0);
  v.Set(255);
  v.Set(64);
  EXPECT_TRUE(v.Test(0));
  EXPECT_TRUE(v.Test(64));
  EXPECT_TRUE(v.Test(255));
  EXPECT_FALSE(v.Test(1));
  EXPECT_EQ(v.Count(), 3);
  v.Flip(64);
  EXPECT_FALSE(v.Test(64));
  v.Clear(0);
  EXPECT_EQ(v.Count(), 1);
}

TEST(BitVectorTest, PositionsRoundTrip) {
  std::vector<int> positions = {0, 1, 63, 64, 127, 128, 191, 192, 255};
  BitVector256 v = BitVector256::FromPositions(positions);
  EXPECT_EQ(v.Positions(), positions);
  EXPECT_EQ(v.Count(), static_cast<int>(positions.size()));
}

TEST(BitVectorTest, SignatureStringMatchesPaperExample) {
  // "if only the first and the second rule were used ... the rule signature
  // will be 1100000000" (paper Sec. 2.1).
  BitVector256 v = BitVector256::FromPositions({0, 1});
  EXPECT_EQ(v.ToString(10), "1100000000");
}

TEST(BitVectorTest, SetAlgebra) {
  BitVector256 a = BitVector256::FromPositions({1, 2, 3});
  BitVector256 b = BitVector256::FromPositions({3, 4});
  EXPECT_EQ((a | b).Positions(), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ((a & b).Positions(), (std::vector<int>{3}));
  EXPECT_EQ((a ^ b).Positions(), (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(a.AndNot(b).Positions(), (std::vector<int>{1, 2}));
  EXPECT_TRUE(a.Contains(BitVector256::FromPositions({1, 3})));
  EXPECT_FALSE(a.Contains(b));
}

TEST(BitVectorTest, FirstN) {
  BitVector256 v = BitVector256::FirstN(40);
  EXPECT_EQ(v.Count(), 40);
  EXPECT_TRUE(v.Test(39));
  EXPECT_FALSE(v.Test(40));
}

class BitVectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitVectorPropertyTest, AlgebraLaws) {
  Rng rng(GetParam());
  BitVector256 a, b, c;
  for (int i = 0; i < 256; ++i) {
    if (rng.Bernoulli(0.3)) a.Set(i);
    if (rng.Bernoulli(0.3)) b.Set(i);
    if (rng.Bernoulli(0.3)) c.Set(i);
  }
  // De Morgan-ish identities expressible without complement.
  EXPECT_EQ((a | b).Count() + (a & b).Count(), a.Count() + b.Count());
  EXPECT_EQ(a.AndNot(b) | (a & b), a);
  EXPECT_EQ(((a | b) | c), (a | (b | c)));
  EXPECT_EQ(((a & b) & c), (a & (b & c)));
  EXPECT_EQ((a ^ b) ^ b, a);
  // Hash equality for equal values.
  BitVector256 a2 = a;
  EXPECT_EQ(a.Hash(), a2.Hash());
  // Positions ascending and consistent with Test().
  auto pos = a.Positions();
  for (size_t i = 1; i < pos.size(); ++i) EXPECT_LT(pos[i - 1], pos[i]);
  for (int p : pos) EXPECT_TRUE(a.Test(p));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitVectorPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345, 777,
                                           31337));

// ---------------------------------------------------------------------------
// Rng.
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    double v = rng.Uniform(5.0, 6.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
    int64_t k = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(k, -3);
    EXPECT_LE(k, 3);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(RngTest, ParetoIsHeavyTailedAboveScale) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(1.0, 1.5), 1.0);
  }
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng parent(9);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

TEST(StatsTest, RunningStatsMatchesClosedForm) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.cv(), s.stddev() / 2.5, 1e-12);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 2.5);
}

TEST(StatsTest, PearsonPerfectAndInverse) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {2, 4, 6, 8};
  std::vector<double> zs = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(xs, zs), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(xs, {1, 1, 1, 1}), 0.0);
}

TEST(StatsTest, FitLinearRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 7.0);
  }
  auto fit = FitLinear(xs, ys);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 3.0, 1e-9);
  EXPECT_NEAR(fit->intercept, -7.0, 1e-9);
  EXPECT_NEAR(fit->r2, 1.0, 1e-12);
}

TEST(StatsTest, FitLinearRejectsDegenerate) {
  EXPECT_FALSE(FitLinear({1.0}, {2.0}).ok());
  EXPECT_FALSE(FitLinear({1, 1, 1}, {2, 3, 4}).ok());
  EXPECT_FALSE(FitLinear({1, 2}, {1, 2, 3}).ok());
}

TEST(StatsTest, LinearRegressionRecoversPlane) {
  Rng rng(21);
  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  for (int i = 0; i < 200; ++i) {
    double a = rng.Uniform(-1, 1);
    double b = rng.Uniform(-1, 1);
    features.push_back({a, b});
    targets.push_back(2.0 * a - 0.5 * b + 0.25);
  }
  LinearRegression model;
  ASSERT_TRUE(model.Fit(features, targets).ok());
  EXPECT_NEAR(model.weights()[0], 2.0, 1e-6);
  EXPECT_NEAR(model.weights()[1], -0.5, 1e-6);
  EXPECT_NEAR(model.intercept(), 0.25, 1e-6);
  EXPECT_NEAR(model.Score(features, targets), 1.0, 1e-9);
  EXPECT_NEAR(model.Predict({1.0, 1.0}), 1.75, 1e-6);
}

TEST(StatsTest, LinearRegressionRejectsRaggedInput) {
  LinearRegression model;
  EXPECT_FALSE(model.Fit({{1.0, 2.0}, {3.0}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(model.Fit({}, {}).ok());
}

TEST(StatsTest, PolynomialFitRecoversQuadratic) {
  std::vector<double> xs, ys;
  for (int i = -10; i <= 10; ++i) {
    xs.push_back(i);
    ys.push_back(1.0 + 2.0 * i + 0.5 * i * i);
  }
  auto fit = FitPolynomial(xs, ys, 2);
  ASSERT_TRUE(fit.ok());
  ASSERT_EQ(fit->coefficients.size(), 3u);
  EXPECT_NEAR(fit->coefficients[0], 1.0, 1e-6);
  EXPECT_NEAR(fit->coefficients[1], 2.0, 1e-6);
  EXPECT_NEAR(fit->coefficients[2], 0.5, 1e-6);
  EXPECT_NEAR(fit->Predict(3.0), 1.0 + 6.0 + 4.5, 1e-6);
}

TEST(StatsTest, SolveLinearSystemSingularFails) {
  std::vector<double> out;
  EXPECT_FALSE(
      SolveLinearSystem({{1, 2}, {2, 4}}, {1, 2}, &out).ok());
}

TEST(StatsTest, FractionHelpers) {
  std::vector<double> xs = {-2, -1, 0, 1, 2};
  EXPECT_DOUBLE_EQ(FractionBelow(xs, 0.0), 0.4);
  EXPECT_DOUBLE_EQ(FractionAbove(xs, 0.0), 0.4);
  EXPECT_DOUBLE_EQ(FractionBelow({}, 0.0), 0.0);
}

// ---------------------------------------------------------------------------
// SymbolTable.
// ---------------------------------------------------------------------------

TEST(SymbolTableTest, InternIsIdempotentAndInjective) {
  SymbolTable table;
  Symbol a = table.Intern("fact");
  Symbol b = table.Intern("dim");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("fact"), a);
  EXPECT_EQ(table.Intern("dim"), b);
  EXPECT_EQ(table.Resolve(a), "fact");
  EXPECT_EQ(table.Resolve(b), "dim");
}

TEST(SymbolTableTest, WellKnownSymbolsArePreInterned) {
  SymbolTable table;
  EXPECT_EQ(table.Intern(""), kSymEmpty);
  EXPECT_EQ(table.Intern("*"), kSymStar);
  EXPECT_EQ(table.Resolve(kSymEmpty), "");
  EXPECT_EQ(table.Resolve(kSymStar), "*");
  EXPECT_EQ(table.size(), 2u);
  // The process-wide table used by Sym()/SymName() agrees on the constants.
  EXPECT_EQ(Sym(""), kSymEmpty);
  EXPECT_EQ(Sym("*"), kSymStar);
}

TEST(SymbolTableTest, ResolveRoundTripsManySymbols) {
  SymbolTable table;
  std::vector<Symbol> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(table.Intern(std::string("col_") + std::to_string(i)));
  }
  EXPECT_EQ(table.size(), 1002u);  // 1000 + "" + "*"
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.Resolve(ids[i]), std::string("col_") + std::to_string(i));
    EXPECT_EQ(table.Intern(std::string("col_") + std::to_string(i)), ids[i]);
  }
}

TEST(SymbolTableTest, ConcurrentInternsAgree) {
  // Racing interns of the same strings must converge to one id per string
  // (double-checked insert), and every returned id must resolve back.
  SymbolTable table;
  constexpr int kThreads = 8;
  constexpr int kStrings = 200;
  std::vector<std::string> names;
  names.reserve(kStrings);
  for (int i = 0; i < kStrings; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    names.push_back(name);
  }
  std::vector<std::vector<Symbol>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &seen, &names, t] {
      for (const std::string& name : names) {
        seen[t].push_back(table.Intern(name));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  for (int i = 0; i < kStrings; ++i) {
    EXPECT_EQ(table.Resolve(seen[0][i]), names[i]);
  }
}

TEST(TablePrinterTest, FormatsAlignedTable) {
  TablePrinter table({"a", "bbbb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| a   | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4    |"), std::string::npos);
  EXPECT_EQ(TablePrinter::Pct(-0.143), "-14.3%");
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
}

}  // namespace
}  // namespace qo
