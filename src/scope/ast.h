// Abstract syntax tree for the SCOPE-like scripting language.
//
// A script ("job") is a sequence of statements. Rowset-producing statements
// bind a name that later statements can reference, which is how multiple SQL
// statements are stitched into a single operator DAG by the compiler.
// Every name in the AST is text: the parser interns nothing, and the compiler
// (compiler.cc) interns names as it binds them into the logical plan.
//
// Grammar sketch (see parser.cc for the full recursive-descent grammar):
//
//   script     := statement+
//   statement  := extract | assign | output
//   extract    := id '=' 'EXTRACT' cols 'FROM' string ';'
//   assign     := id '=' select ';'
//   select     := 'SELECT' selectList 'FROM' source (join)* (where)?
//                 (groupBy)? | source 'UNION' 'ALL' source
//   output     := 'OUTPUT' id 'TO' string ';'
#ifndef QO_SCOPE_AST_H_
#define QO_SCOPE_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "scope/types.h"

namespace qo::scope {

/// Aggregate functions available in the select list.
enum class AggFunc {
  kNone,  ///< plain column reference / expression
  kSum,
  kCount,
  kMin,
  kMax,
  kAvg,
};

const char* AggFuncToString(AggFunc f);

/// Comparison operators usable in WHERE predicates and join conditions.
enum class CompareOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

const char* CompareOpToString(CompareOp op);

/// A single conjunct `column <op> literal` in a WHERE clause. Literal is kept
/// as text plus an optional selectivity annotation: the synthetic workload
/// generator knows the ground-truth selectivity of each predicate and embeds
/// it as `@sel` so the execution simulator can compute true cardinalities
/// while the optimizer only sees estimated statistics.
struct Predicate {
  std::string column;
  CompareOp op = CompareOp::kEq;
  std::string literal;
  /// Ground-truth fraction of rows passing; < 0 means unknown (the simulator
  /// falls back to catalog heuristics).
  double true_selectivity = -1.0;

  std::string ToString() const;
};

/// One item of a SELECT list: optional aggregate over a column, with an
/// optional output alias. `column == "*"` with kNone denotes "all columns";
/// `column == "*"` with kCount denotes COUNT(*).
struct SelectItem {
  AggFunc agg = AggFunc::kNone;
  std::string column;
  std::string alias;  ///< empty = inherit column name

  std::string OutputName() const;
  std::string ToString() const;
};

/// Equi-join clause: `JOIN <rowset> ON <left_col> == <right_col> [@ fanout]`.
/// The optional `@ fanout` annotation records the ground-truth join fanout
/// (output rows per left input row) for the execution simulator; the
/// optimizer never reads it. Default 1.0 models a foreign-key join.
struct JoinClause {
  std::string rowset;
  std::string left_column;
  std::string right_column;
  double true_fanout = 1.0;
};

/// Statement kinds.
enum class StatementKind {
  kExtract,
  kSelect,
  kUnion,
  kOutput,
};

/// `rs = EXTRACT a:int, b:string FROM "path";`
struct ExtractStatement {
  std::string target;
  std::vector<Column> columns;
  std::string input_path;
};

/// `rs = SELECT ... FROM src [JOIN r ON a == b]* [WHERE preds] [GROUP BY c,...];`
struct SelectStatement {
  std::string target;
  std::vector<SelectItem> items;
  std::string from;
  std::vector<JoinClause> joins;
  std::vector<Predicate> where;  ///< conjunctive predicates
  std::vector<std::string> group_by;
};

/// `rs = left UNION ALL right;`
struct UnionStatement {
  std::string target;
  std::string left;
  std::string right;
};

/// `OUTPUT rs TO "path";`
struct OutputStatement {
  std::string source;
  std::string output_path;
};

/// A single parsed statement (tagged union).
struct Statement {
  StatementKind kind = StatementKind::kExtract;
  ExtractStatement extract;
  SelectStatement select;
  UnionStatement union_stmt;
  OutputStatement output;
  int line = 0;  ///< 1-based source line for diagnostics
};

/// A full parsed script.
struct Script {
  std::vector<Statement> statements;

  size_t OutputCount() const {
    size_t n = 0;
    for (const auto& s : statements) {
      if (s.kind == StatementKind::kOutput) ++n;
    }
    return n;
  }
};

}  // namespace qo::scope

#endif  // QO_SCOPE_AST_H_
