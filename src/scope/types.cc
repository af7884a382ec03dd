#include "scope/types.h"

namespace qo::scope {

const char* ColumnTypeToString(ColumnType t) {
  switch (t) {
    case ColumnType::kInt:
      return "int";
    case ColumnType::kLong:
      return "long";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kString:
      return "string";
    case ColumnType::kBool:
      return "bool";
  }
  return "unknown";
}

bool ParseColumnType(const std::string& name, ColumnType* out) {
  if (name == "int") {
    *out = ColumnType::kInt;
  } else if (name == "long") {
    *out = ColumnType::kLong;
  } else if (name == "double") {
    *out = ColumnType::kDouble;
  } else if (name == "string") {
    *out = ColumnType::kString;
  } else if (name == "bool") {
    *out = ColumnType::kBool;
  } else {
    return false;
  }
  return true;
}

int ColumnTypeWidth(ColumnType t) {
  switch (t) {
    case ColumnType::kInt:
      return 4;
    case ColumnType::kLong:
      return 8;
    case ColumnType::kDouble:
      return 8;
    case ColumnType::kString:
      return 24;
    case ColumnType::kBool:
      return 1;
  }
  return 8;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += SymName(columns[i].name);
    out += ":";
    out += ColumnTypeToString(columns[i].type);
  }
  out += ")";
  return out;
}

}  // namespace qo::scope
