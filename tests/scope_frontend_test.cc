// Tests for the SCOPE-like language front end: lexer, parser, compiler.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/symbol_table.h"
#include "scope/catalog.h"
#include "scope/compiler.h"
#include "scope/lexer.h"
#include "scope/parser.h"

namespace qo::scope {
namespace {

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenizesAllCategories) {
  auto tokens = Tokenize("rs = SELECT a, SUM(b) FROM t WHERE x >= 1.5 @ 0.3;");
  ASSERT_TRUE(tokens.ok());
  const auto& ts = *tokens;
  EXPECT_EQ(ts[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(ts[0].text, "rs");
  EXPECT_TRUE(ts[1].IsSymbol("="));
  EXPECT_TRUE(ts[2].IsKeyword("SELECT"));
  EXPECT_EQ(ts.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("FROM"));
  EXPECT_TRUE((*tokens)[2].IsKeyword("WHERE"));
}

TEST(LexerTest, CommentsAndLinesTracked) {
  auto tokens = Tokenize("a -- comment with SELECT\nb");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);  // a, b, EOF
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[1].line, 2);
}

TEST(LexerTest, StringLiteralsStripQuotes) {
  auto tokens = Tokenize("\"hello world\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "hello world");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("\"oops").ok());
  EXPECT_FALSE(Tokenize("\"oops\nnext\"").ok());
}

TEST(LexerTest, NumbersIncludingNegativeAndDecimal) {
  auto tokens = Tokenize("1 2.5 -3 -4.25");
  ASSERT_TRUE(tokens.ok());
  for (size_t i = 0; i + 1 < tokens->size(); ++i) {
    EXPECT_EQ((*tokens)[i].kind, TokenKind::kNumber) << i;
  }
}

TEST(LexerTest, MultiCharOperators) {
  auto tokens = Tokenize("== != <= >= < >");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsSymbol("=="));
  EXPECT_TRUE((*tokens)[1].IsSymbol("!="));
  EXPECT_TRUE((*tokens)[2].IsSymbol("<="));
  EXPECT_TRUE((*tokens)[3].IsSymbol(">="));
}

TEST(LexerTest, RejectsUnknownCharacter) {
  EXPECT_FALSE(Tokenize("a $ b").ok());
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

TEST(ParserTest, ParsesExtract) {
  auto script = ParseScript(
      "rs = EXTRACT a:int, b:string, c:double FROM \"path\";");
  ASSERT_TRUE(script.ok());
  ASSERT_EQ(script->statements.size(), 1u);
  const auto& ex = script->statements[0].extract;
  EXPECT_EQ(script->statements[0].kind, StatementKind::kExtract);
  EXPECT_EQ(ex.target, "rs");
  ASSERT_EQ(ex.columns.size(), 3u);
  EXPECT_EQ(ex.columns[1].name, "b");
  EXPECT_EQ(ex.columns[1].type, ColumnType::kString);
  EXPECT_EQ(ex.input_path, "path");
}

TEST(ParserTest, ParsesSelectWithEverything) {
  auto script = ParseScript(R"(
    out = SELECT a, SUM(b) AS total, COUNT(*) AS n FROM src
          JOIN other ON a == pk @ 1.5
          WHERE a > 5 @ 0.25 AND c == "x"
          GROUP BY a;
  )");
  ASSERT_TRUE(script.ok()) << script.status();
  const auto& sel = script->statements[0].select;
  ASSERT_EQ(sel.items.size(), 3u);
  EXPECT_EQ(sel.items[1].agg, AggFunc::kSum);
  EXPECT_EQ(sel.items[1].alias, "total");
  EXPECT_EQ(sel.items[2].column, "*");
  EXPECT_EQ(sel.items[2].agg, AggFunc::kCount);
  ASSERT_EQ(sel.joins.size(), 1u);
  EXPECT_DOUBLE_EQ(sel.joins[0].true_fanout, 1.5);
  ASSERT_EQ(sel.where.size(), 2u);
  EXPECT_DOUBLE_EQ(sel.where[0].true_selectivity, 0.25);
  EXPECT_LT(sel.where[1].true_selectivity, 0.0);  // unannotated
  EXPECT_EQ(sel.group_by, std::vector<std::string>{"a"});
}

TEST(ParserTest, ParsesUnionAllAndOutput) {
  auto script = ParseScript(R"(
    u = left UNION ALL right;
    OUTPUT u TO "sink";
  )");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->statements[0].kind, StatementKind::kUnion);
  EXPECT_EQ(script->statements[0].union_stmt.left, "left");
  EXPECT_EQ(script->statements[1].kind, StatementKind::kOutput);
  EXPECT_EQ(script->OutputCount(), 1u);
}

struct BadScriptCase {
  const char* name;
  const char* source;
};

class ParserErrorTest : public ::testing::TestWithParam<BadScriptCase> {};

TEST_P(ParserErrorTest, RejectsMalformedScripts) {
  auto script = ParseScript(GetParam().source);
  EXPECT_FALSE(script.ok()) << GetParam().name;
  EXPECT_EQ(script.status().code(), StatusCode::kParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        BadScriptCase{"empty", ""},
        BadScriptCase{"missing_semicolon", "rs = EXTRACT a:int FROM \"p\""},
        BadScriptCase{"bad_type", "rs = EXTRACT a:blob FROM \"p\";"},
        BadScriptCase{"no_columns", "rs = EXTRACT FROM \"p\";"},
        BadScriptCase{"join_single_equals",
                      "x = SELECT * FROM a JOIN b ON k = j;"},
        BadScriptCase{"selectivity_out_of_range",
                      "x = SELECT * FROM a WHERE c == 1 @ 1.5;"},
        BadScriptCase{"negative_fanout",
                      "x = SELECT * FROM a JOIN b ON k == j @ -2;"},
        BadScriptCase{"union_missing_all", "u = a UNION b;"},
        BadScriptCase{"output_missing_to", "OUTPUT rs \"p\";"},
        BadScriptCase{"dangling_assignment", "rs = ;"}),
    [](const ::testing::TestParamInfo<BadScriptCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Compiler.
// ---------------------------------------------------------------------------

Catalog TestCatalog() {
  Catalog catalog;
  TableStats t;
  t.true_rows = 1000;
  t.est_rows = 1000;
  t.columns["a"] = {100, 100};
  t.columns["b"] = {10, 10};
  catalog.RegisterTable("p", t);
  catalog.RegisterTable("q", t);
  return catalog;
}

TEST(CompilerTest, BuildsDagWithSharedSubplan) {
  // `filtered` is consumed by two outputs: the plan must share the node.
  auto plan = CompileSource(R"(
    rs = EXTRACT a:int, b:string FROM "p";
    filtered = SELECT * FROM rs WHERE a > 3;
    agg = SELECT b, COUNT(*) AS n FROM filtered GROUP BY b;
    OUTPUT filtered TO "o1";
    OUTPUT agg TO "o2";
  )",
                            TestCatalog());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->roots.size(), 2u);
  auto fan = plan->FanOut();
  int shared = 0;
  for (int f : fan) {
    if (f >= 2) ++shared;
  }
  EXPECT_GE(shared, 1) << plan->ToString();
}

TEST(CompilerTest, SchemaDerivation) {
  auto plan = CompileSource(R"(
    rs = EXTRACT a:int, b:string FROM "p";
    other = EXTRACT pk:int, c:double FROM "q";
    j = SELECT * FROM rs JOIN other ON a == pk;
    agg = SELECT b, SUM(c) AS total FROM j GROUP BY b;
    OUTPUT agg TO "o";
  )",
                            TestCatalog());
  ASSERT_TRUE(plan.ok()) << plan.status();
  const LogicalNode& out = plan->node(plan->roots[0]);
  ASSERT_EQ(out.schema.size(), 2u);
  EXPECT_EQ(SymName(out.schema.columns[0].name), "b");
  EXPECT_EQ(SymName(out.schema.columns[1].name), "total");
  EXPECT_EQ(out.schema.columns[1].type, ColumnType::kDouble);
}

TEST(CompilerTest, JoinSchemaConcatenatesBothSides) {
  auto plan = CompileSource(R"(
    rs = EXTRACT a:int, b:string FROM "p";
    other = EXTRACT pk:int, c:double FROM "q";
    j = SELECT * FROM rs JOIN other ON a == pk;
    OUTPUT j TO "o";
  )",
                            TestCatalog());
  ASSERT_TRUE(plan.ok());
  const LogicalNode& out = plan->node(plan->roots[0]);
  EXPECT_EQ(out.schema.size(), 4u);
}

// Literals are values, not names: a script that differs from an earlier one
// only in a filter literal interns nothing.
TEST(CompilerTest, FilterLiteralsAreNotInterned) {
  const Catalog catalog = TestCatalog();
  auto script = [](const std::string& literal) {
    return "rs = EXTRACT a:int, b:string FROM \"p\";\n"
           "f = SELECT a FROM rs WHERE a > " +
           literal + ";\nOUTPUT f TO \"literal_probe_out\";\n";
  };
  ASSERT_TRUE(CompileSource(script("1.25"), catalog).ok());
  const size_t before = SymbolTable::Global().size();
  auto plan = CompileSource(script("731.004217"), catalog);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(SymbolTable::Global().size(), before);
  EXPECT_EQ(SymbolTable::Global().Find("731.004217"), kNoSymbol);
  bool found = false;
  for (const LogicalNode& n : plan->nodes) {
    for (const BoundPredicate& p : n.predicates) {
      found = found || p.literal == "731.004217";
    }
  }
  EXPECT_TRUE(found) << plan->ToString();
}

struct CompileErrorCase {
  const char* name;
  const char* source;
};

class CompilerErrorTest : public ::testing::TestWithParam<CompileErrorCase> {};

TEST_P(CompilerErrorTest, RejectsSemanticErrors) {
  auto plan = CompileSource(GetParam().source, TestCatalog());
  ASSERT_FALSE(plan.ok()) << GetParam().name;
  EXPECT_EQ(plan.status().code(), StatusCode::kCompileError)
      << plan.status();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CompilerErrorTest,
    ::testing::Values(
        CompileErrorCase{"unknown_input",
                         "rs = EXTRACT a:int FROM \"nope\"; OUTPUT rs TO \"o\";"},
        CompileErrorCase{"unknown_rowset", "OUTPUT ghost TO \"o\";"},
        CompileErrorCase{
            "unknown_predicate_column",
            "rs = EXTRACT a:int FROM \"p\";"
            "f = SELECT * FROM rs WHERE ghost == 1; OUTPUT f TO \"o\";"},
        CompileErrorCase{
            "unknown_join_key",
            "rs = EXTRACT a:int FROM \"p\"; t = EXTRACT pk:int FROM \"q\";"
            "j = SELECT * FROM rs JOIN t ON ghost == pk; OUTPUT j TO \"o\";"},
        CompileErrorCase{
            "non_grouped_column",
            "rs = EXTRACT a:int, b:int FROM \"p\";"
            "g = SELECT a, b, SUM(a) AS s FROM rs GROUP BY a;"
            "OUTPUT g TO \"o\";"},
        CompileErrorCase{
            "redefined_rowset",
            "rs = EXTRACT a:int FROM \"p\"; rs = EXTRACT a:int FROM \"q\";"
            "OUTPUT rs TO \"o\";"},
        CompileErrorCase{"no_output", "rs = EXTRACT a:int FROM \"p\";"},
        CompileErrorCase{
            "union_arity_mismatch",
            "a1 = EXTRACT a:int FROM \"p\"; b1 = EXTRACT a:int, b:int FROM "
            "\"q\"; u = a1 UNION ALL b1; OUTPUT u TO \"o\";"}),
    [](const ::testing::TestParamInfo<CompileErrorCase>& info) {
      return info.param.name;
    });

TEST(CompilerTest, SelectStarWithoutFilterAliasesSameNode) {
  auto plan = CompileSource(R"(
    rs = EXTRACT a:int FROM "p";
    alias = SELECT * FROM rs;
    OUTPUT alias TO "o";
  )",
                            TestCatalog());
  ASSERT_TRUE(plan.ok());
  // No Project/Filter node should be created for a pure alias.
  for (const auto& node : plan->nodes) {
    EXPECT_NE(node.kind, LogicalOpKind::kProject);
    EXPECT_NE(node.kind, LogicalOpKind::kFilter);
  }
}

// An untrusted script names whatever inputs it likes. Probing the catalog
// for a path or column nobody ever interned must miss without growing the
// process-wide symbol table, which is never trimmed.
TEST(CatalogTest, ProbesOfUnseenNamesNeverGrowTheSymbolTable) {
  const Catalog catalog = TestCatalog();
  const std::string path = "store://catalog_probe/never/interned";
  const size_t before = SymbolTable::Global().size();
  EXPECT_FALSE(catalog.Has(path));
  EXPECT_FALSE(catalog.Lookup(path).ok());
  const ColumnStats& unseen_table =
      catalog.LookupColumn(path, "catalog_probe_column");
  const ColumnStats& unseen_column =
      catalog.LookupColumn("p", "catalog_probe_column");
  EXPECT_EQ(unseen_table.true_ndv, ColumnStats{}.true_ndv);
  EXPECT_EQ(unseen_column.est_ndv, ColumnStats{}.est_ndv);
  // The compiler probes every EXTRACT path before it binds anything.
  auto plan = CompileSource("rs = EXTRACT a:int FROM \"" + path +
                                "\"; OUTPUT rs TO \"o\";",
                            catalog);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kCompileError);
  EXPECT_EQ(SymbolTable::Global().size(), before);
  // A registered path whose script references a column that was never
  // interned, in WHERE, in a JOIN and in GROUP BY: the binder resolves
  // references with SymbolTable::Find, so each is rejected as before and
  // interns nothing.
  const std::string extract =
      "rs = EXTRACT a:int, b:string FROM \"p\";\n"
      "rs2 = EXTRACT a:int, b:string FROM \"q\";\n";
  const std::pair<const char*, const char*> unseen_references[] = {
      {"f = SELECT * FROM rs WHERE catalog_probe_where > 3;\n",
       "predicate column 'catalog_probe_where' not found at line 3"},
      {"j = SELECT * FROM rs JOIN rs2 ON catalog_probe_join == a;\n",
       "join key 'catalog_probe_join' not found on left side at line 3"},
      {"g = SELECT COUNT(*) AS n FROM rs GROUP BY catalog_probe_group;\n",
       "GROUP BY column 'catalog_probe_group' not found at line 3"},
  };
  for (const auto& [statement, message] : unseen_references) {
    auto rejected = CompileSource(
        extract + statement + "OUTPUT rs TO \"catalog_probe_out\";", catalog);
    ASSERT_FALSE(rejected.ok()) << statement;
    EXPECT_EQ(rejected.status().code(), StatusCode::kCompileError);
    EXPECT_NE(rejected.status().message().find(message), std::string::npos)
        << rejected.status();
    EXPECT_EQ(SymbolTable::Global().size(), before) << statement;
  }
  // Registered names still resolve through the string overloads.
  EXPECT_TRUE(catalog.Has("p"));
  EXPECT_EQ(catalog.LookupColumn("p", "b").true_ndv, 10);
}

}  // namespace
}  // namespace qo::scope
