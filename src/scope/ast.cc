#include "scope/ast.h"

namespace qo::scope {

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "";
}

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "==";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Predicate::ToString() const {
  return column + " " + CompareOpToString(op) + " " + literal;
}

std::string SelectItem::OutputName() const {
  if (!alias.empty()) return alias;
  if (agg != AggFunc::kNone) {
    return std::string(AggFuncToString(agg)) + "_" + column;
  }
  return column;
}

std::string SelectItem::ToString() const {
  std::string out;
  if (agg != AggFunc::kNone) {
    out = std::string(AggFuncToString(agg)) + "(" + column + ")";
  } else {
    out = column;
  }
  if (!alias.empty()) {
    out += " AS ";
    out += alias;
  }
  return out;
}

}  // namespace qo::scope
