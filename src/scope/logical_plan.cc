#include "scope/logical_plan.h"

#include <functional>

namespace qo::scope {

const char* LogicalOpKindToString(LogicalOpKind k) {
  switch (k) {
    case LogicalOpKind::kScan:
      return "Scan";
    case LogicalOpKind::kFilter:
      return "Filter";
    case LogicalOpKind::kProject:
      return "Project";
    case LogicalOpKind::kJoin:
      return "Join";
    case LogicalOpKind::kAggregate:
      return "Aggregate";
    case LogicalOpKind::kUnionAll:
      return "UnionAll";
    case LogicalOpKind::kOutput:
      return "Output";
  }
  return "Unknown";
}

std::string BoundPredicate::ToString() const {
  std::string out = SymName(column);
  out += ' ';
  out += CompareOpToString(op);
  out += ' ';
  out += literal;
  return out;
}

std::string BoundSelectItem::ToString() const {
  std::string out;
  if (agg != AggFunc::kNone) {
    out = AggFuncToString(agg);
    out += '(';
    out += SymName(column);
    out += ')';
  } else {
    out = SymName(column);
  }
  if (alias != kSymEmpty) {
    out += " AS ";
    out += SymName(alias);
  }
  return out;
}

std::vector<int> LogicalPlan::FanOut() const {
  std::vector<int> fan(nodes.size(), 0);
  for (const auto& n : nodes) {
    for (int c : n.children) ++fan[c];
  }
  return fan;
}

std::string LogicalPlan::ToString() const {
  std::string out;
  std::function<void(int, int)> dump = [&](int id, int depth) {
    const LogicalNode& n = nodes[id];
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += LogicalOpKindToString(n.kind);
    out += '#';
    out += std::to_string(n.id);
    switch (n.kind) {
      case LogicalOpKind::kScan:
        out += ' ';
        out += SymName(n.table_path);
        break;
      case LogicalOpKind::kFilter: {
        out += " [";
        for (size_t i = 0; i < n.predicates.size(); ++i) {
          if (i > 0) out += " AND ";
          out += n.predicates[i].ToString();
        }
        out += "]";
        break;
      }
      case LogicalOpKind::kJoin:
        out += " on ";
        out += SymName(n.left_key);
        out += "==";
        out += SymName(n.right_key);
        break;
      case LogicalOpKind::kAggregate: {
        out += " by(";
        for (size_t i = 0; i < n.group_by.size(); ++i) {
          if (i > 0) out += ",";
          out += SymName(n.group_by[i]);
        }
        out += ")";
        break;
      }
      case LogicalOpKind::kOutput:
        out += " -> ";
        out += SymName(n.output_path);
        break;
      default:
        break;
    }
    out += "\n";
    for (int c : n.children) dump(c, depth + 1);
  };
  for (int r : roots) dump(r, 0);
  return out;
}

}  // namespace qo::scope
