// Deterministic mutational fuzzing of the two untrusted text inputs: SCOPE
// scripts (`scope::CompileSource`: lex, parse, bind) and hint files
// (`sis::HintFile::Parse`). No external engine: a fixed-seed mutator derives
// a bounded number of inputs from seeds taken from the workload generator
// and from serialized hint files. Every input must come back as a plan or a
// Status, never as a crash, an exception or undefined behavior (the
// ASan+UBSan build runs this suite too). An input that ever crashes either
// target belongs here as a fixed test case next to these loops.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "scope/catalog.h"
#include "scope/compiler.h"
#include "sis/sis.h"
#include "workload/workload.h"

namespace qo {
namespace {

/// Tokens the mutator splices into scripts: keywords, operators, quotes,
/// comment openers and numbers at the edges of what strtod accepts.
const std::vector<std::string_view> kScriptTokens = {
    "EXTRACT", "SELECT", "FROM", "JOIN", "ON", "WHERE", "AND", "GROUP BY",
    "UNION ALL", "UNION", "OUTPUT", "TO", "AS", "SUM(", "COUNT(*)", "MIN(",
    "@", "==", "!=", "<=", ">=", "<", ">", "=", "\"", ";", ",", ":", "*", "(",
    ")", ".", "-", "//", "/*", "\n", "\t", ":int", ":long", ":string",
    ":double", "1e308", "-1e308", "1e-320", "nan", "inf", "-inf", "0", "-0",
    "99999999999999999999", "0x1p4", "rs", "fact_rs", "store://t0/fact",
};

/// Tokens for hint files: the header, fields, directions and integers at
/// the edges of the rule-id range.
const std::vector<std::string_view> kHintTokens = {
    "# hints day=", "day=", "#", ",", "on", "off", "\n", "\r", " ", "-1",
    "0", "255", "256", "2147483647", "2147483648", "99999999999999999999",
    "+5", "0x10", "1e3", "Template_1", "Template_2", "",
};

/// A fixed-seed byte-level mutator (bit flips, byte sets, token inserts,
/// range deletes and duplicates, splices, number swaps, truncation).
class Mutator {
 public:
  Mutator(uint64_t seed, const std::vector<std::string_view>* tokens)
      : rng_(seed), tokens_(tokens) {}

  std::string Mutate(const std::string& input,
                     const std::vector<std::string>& corpus) {
    std::string s = input;
    const int rounds = 1 + static_cast<int>(rng_.UniformInt(4));
    for (int r = 0; r < rounds; ++r) MutateOnce(&s, corpus);
    return s;
  }

 private:
  size_t Pos(const std::string& s) { return rng_.UniformInt(s.size() + 1); }

  void MutateOnce(std::string* s, const std::vector<std::string>& corpus) {
    switch (rng_.UniformInt(8)) {
      case 0:  // flip one bit
        if (!s->empty()) {
          (*s)[rng_.UniformInt(s->size())] ^=
              static_cast<char>(1u << rng_.UniformInt(8));
        }
        break;
      case 1: {  // set a byte to a structural or extreme character
        static constexpr char kBytes[] = "\"';,()@*=<>!.\n\t _-09azAZ\0\xff";
        if (!s->empty()) {
          (*s)[rng_.UniformInt(s->size())] =
              kBytes[rng_.UniformInt(sizeof(kBytes) - 1)];
        }
        break;
      }
      case 2: {  // insert a dictionary token
        std::string_view t = (*tokens_)[rng_.UniformInt(tokens_->size())];
        s->insert(Pos(*s), t);
        break;
      }
      case 3: {  // delete a range
        if (s->empty()) break;
        size_t at = rng_.UniformInt(s->size());
        s->erase(at, 1 + rng_.UniformInt(16));
        break;
      }
      case 4: {  // duplicate a range somewhere else
        if (s->empty()) break;
        size_t at = rng_.UniformInt(s->size());
        std::string piece = s->substr(at, 1 + rng_.UniformInt(64));
        s->insert(Pos(*s), piece);
        break;
      }
      case 5: {  // splice: this input's prefix, another's suffix
        const std::string& other = corpus[rng_.UniformInt(corpus.size())];
        *s = s->substr(0, Pos(*s)) + other.substr(Pos(other));
        break;
      }
      case 6: {  // replace a run of digits with a token
        size_t at = s->find_first_of("0123456789", Pos(*s));
        if (at == std::string::npos) break;
        size_t end = s->find_first_not_of("0123456789.e-", at);
        if (end == std::string::npos) end = s->size();
        s->replace(at, end - at, (*tokens_)[rng_.UniformInt(tokens_->size())]);
        break;
      }
      default:  // truncate
        s->resize(Pos(*s));
        break;
    }
  }

  Rng rng_;
  const std::vector<std::string_view>* tokens_;
};

/// Printable form of a failing input for the failure message.
std::string Escaped(const std::string& s) {
  std::ostringstream out;
  for (unsigned char c : s) {
    if (c == '\\' || c == '"') {
      out << '\\' << c;
    } else if (c >= 0x20 && c < 0x7f) {
      out << c;
    } else {
      static const char* kHex = "0123456789abcdef";
      out << "\\x" << kHex[c >> 4] << kHex[c & 15];
    }
  }
  return out.str();
}

/// Compiles `source`; true when it compiled. Fails the test (naming the
/// input) on an exception or on a plan that breaks the DAG invariants.
bool CheckScript(const std::string& source, const scope::Catalog& catalog) {
  try {
    auto plan = scope::CompileSource(source, catalog);
    if (!plan.ok()) return false;
    bool dag = !plan->roots.empty();
    for (const scope::LogicalNode& node : plan->nodes) {
      for (int c : node.children) dag = dag && c >= 0 && c < node.id;
    }
    for (int r : plan->roots) {
      dag = dag && r >= 0 && static_cast<size_t>(r) < plan->size();
    }
    EXPECT_TRUE(dag) << "malformed plan from \"" << Escaped(source) << "\"";
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "CompileSource threw " << e.what() << " on \""
                  << Escaped(source) << "\"";
    return false;
  }
}

/// Parses `text`; true when it parsed. An accepted file must round-trip
/// through Serialize.
bool CheckHints(const std::string& text) {
  try {
    auto file = sis::HintFile::Parse(text);
    if (!file.ok()) return false;
    const std::string serialized = file->Serialize();
    auto again = sis::HintFile::Parse(serialized);
    EXPECT_TRUE(again.ok() && again->Serialize() == serialized)
        << "no round trip for \"" << Escaped(text) << "\"";
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "HintFile::Parse threw " << e.what() << " on \""
                  << Escaped(text) << "\"";
    return false;
  }
}

/// Generated scripts with their catalogs: the shapes the pipeline compiles.
struct ScriptSeeds {
  std::vector<std::string> scripts;
  std::vector<workload::JobInstance> jobs;
};

ScriptSeeds MakeScriptSeeds() {
  ScriptSeeds seeds;
  workload::WorkloadDriver driver(
      {.num_templates = 24, .jobs_per_day = 24, .seed = 4242});
  for (int day = 0; day < 2; ++day) {
    for (workload::JobInstance& job : driver.DayJobs(day)) {
      seeds.scripts.push_back(job.script);
      seeds.jobs.push_back(std::move(job));
    }
  }
  return seeds;
}

std::vector<std::string> MakeHintSeeds() {
  std::vector<std::string> seeds;
  for (int n : {0, 1, 3, 8}) {
    sis::HintFile file;
    file.day = 7 * n;
    for (int i = 0; i < n; ++i) {
      file.entries.push_back({"Template_" + std::to_string(i), 40 + i,
                              i % 2 == 0});
    }
    seeds.push_back(file.Serialize());
  }
  return seeds;
}

constexpr int kScriptIterations = 30000;
constexpr int kHintIterations = 30000;

TEST(FuzzTest, MutatedScriptsCompileOrFailCleanly) {
  const ScriptSeeds seeds = MakeScriptSeeds();
  for (const workload::JobInstance& job : seeds.jobs) {
    auto plan = scope::CompileSource(job.script, job.catalog);
    ASSERT_TRUE(plan.ok()) << plan.status();  // the seeds themselves compile
  }
  Mutator mutator(0x5c09e5eedULL, &kScriptTokens);
  int compiled = 0;
  for (int i = 0; i < kScriptIterations; ++i) {
    const size_t pick = static_cast<size_t>(i) % seeds.jobs.size();
    const std::string input = mutator.Mutate(seeds.scripts[pick], seeds.scripts);
    compiled += CheckScript(input, seeds.jobs[pick].catalog);
  }
  // Both outcomes are exercised: mutants that still compile reach the
  // binder, the rest reach the lexer's and parser's error paths.
  std::printf("%d of %d mutated scripts compiled\n", compiled,
              kScriptIterations);
  EXPECT_GT(compiled, 0);
  EXPECT_LT(compiled, kScriptIterations);
}

TEST(FuzzTest, MutatedHintFilesParseOrFailCleanly) {
  const std::vector<std::string> seeds = MakeHintSeeds();
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(sis::HintFile::Parse(seed).ok()) << seed;
  }
  Mutator mutator(0x41e7f11eULL, &kHintTokens);
  int parsed = 0;
  for (int i = 0; i < kHintIterations; ++i) {
    const std::string input =
        mutator.Mutate(seeds[static_cast<size_t>(i) % seeds.size()], seeds);
    parsed += CheckHints(input);
  }
  std::printf("%d of %d mutated hint files parsed\n", parsed,
              kHintIterations);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kHintIterations);
}

}  // namespace
}  // namespace qo
