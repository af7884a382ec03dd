// Logical operator DAGs produced by the SCOPE compiler.
//
// A SCOPE job can contain multiple OUTPUT statements and rowsets referenced
// by more than one consumer, so the logical plan is a DAG (not a tree) with
// one root per output (paper Sec. 4.1).
#ifndef QO_SCOPE_LOGICAL_PLAN_H_
#define QO_SCOPE_LOGICAL_PLAN_H_

#include <string>
#include <vector>

#include "scope/ast.h"
#include "scope/types.h"

namespace qo::scope {

enum class LogicalOpKind {
  kScan,       ///< EXTRACT from an input path
  kFilter,     ///< conjunctive predicates
  kProject,    ///< column selection / renaming
  kJoin,       ///< inner equi-join
  kAggregate,  ///< GROUP BY + aggregate functions
  kUnionAll,
  kOutput,  ///< writes a rowset to an output path
};

const char* LogicalOpKindToString(LogicalOpKind k);

/// A bound WHERE conjunct `column <op> literal`. The column is interned; the
/// literal is a value, not a name, so it stays text.
struct BoundPredicate {
  Symbol column = kSymEmpty;
  CompareOp op = CompareOp::kEq;
  std::string literal;
  /// Ground-truth fraction of rows passing; < 0 means unknown.
  double true_selectivity = -1.0;

  std::string ToString() const;
};

/// A bound SELECT item. `column` is kSymStar for COUNT(*), `alias` is
/// kSymEmpty when the item inherits its name, and `output` is the item's
/// output column name (SelectItem::OutputName), so name matching is one
/// integer compare.
struct BoundSelectItem {
  AggFunc agg = AggFunc::kNone;
  Symbol column = kSymEmpty;
  Symbol alias = kSymEmpty;
  Symbol output = kSymEmpty;

  /// A plain reference that keeps the column's name.
  static BoundSelectItem PassThrough(Symbol column) {
    return {AggFunc::kNone, column, kSymEmpty, column};
  }

  std::string ToString() const;
};

/// One logical operator. Payload fields are meaningful per kind:
///  - kScan:      table_path, (schema = extracted columns), predicates may be
///                pushed into the scan by the optimizer.
///  - kFilter:    predicates
///  - kProject:   projections
///  - kJoin:      left_key / right_key (equi-join columns)
///  - kAggregate: group_by + projections (agg items)
///  - kOutput:    output_path
/// Every name is an interned Symbol; kSymEmpty marks an unused one.
struct LogicalNode {
  int id = -1;
  LogicalOpKind kind = LogicalOpKind::kScan;
  std::vector<int> children;
  Schema schema;

  Symbol table_path = kSymEmpty;
  std::vector<BoundPredicate> predicates;
  std::vector<BoundSelectItem> projections;
  std::vector<Symbol> group_by;
  Symbol left_key = kSymEmpty;
  Symbol right_key = kSymEmpty;
  double true_fanout = 1.0;  ///< ground-truth join fanout (simulator only)
  Symbol output_path = kSymEmpty;
};

/// Arena-allocated logical DAG. Node ids index into `nodes`.
struct LogicalPlan {
  std::vector<LogicalNode> nodes;
  std::vector<int> roots;  ///< ids of kOutput nodes, in script order

  /// Appends a node, assigning its id. Children must already exist.
  int AddNode(LogicalNode&& node) {
    node.id = static_cast<int>(nodes.size());
    nodes.push_back(std::move(node));
    return nodes.back().id;
  }

  const LogicalNode& node(int id) const { return nodes[id]; }
  LogicalNode& node(int id) { return nodes[id]; }
  size_t size() const { return nodes.size(); }

  /// Number of consumers per node (DAG sharing degree).
  std::vector<int> FanOut() const;

  /// Multi-line indented dump for debugging / golden tests.
  std::string ToString() const;
};

}  // namespace qo::scope

#endif  // QO_SCOPE_LOGICAL_PLAN_H_
