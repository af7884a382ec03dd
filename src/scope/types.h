// Core value/schema types for the SCOPE-like scripting language.
#ifndef QO_SCOPE_TYPES_H_
#define QO_SCOPE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/symbol_table.h"

namespace qo::scope {

/// Column data types supported by the script language.
enum class ColumnType {
  kInt,
  kLong,
  kDouble,
  kString,
  kBool,
};

const char* ColumnTypeToString(ColumnType t);

/// Parses a type name ("int", "long", "double", "string", "bool"); returns
/// false if unknown.
bool ParseColumnType(const std::string& name, ColumnType* out);

/// Typical serialized width in bytes, used by the statistics layer.
int ColumnTypeWidth(ColumnType t);

/// A named, typed column as a script declares it (EXTRACT lists) and as the
/// workload generator renders it: text, like the rest of the AST.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kString;

  bool operator==(const Column& o) const {
    return name == o.name && type == o.type;
  }
};

/// A column of a bound schema: the binder interned its name.
struct BoundColumn {
  Symbol name = kSymEmpty;
  ColumnType type = ColumnType::kString;

  bool operator==(const BoundColumn& o) const {
    return name == o.name && type == o.type;
  }
};

/// Ordered list of columns carried by a rowset. Lookups compare interned
/// names, so a name that was never interned (kNoSymbol) is in no schema.
struct Schema {
  std::vector<BoundColumn> columns;

  int FindColumn(Symbol name) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }
  bool HasColumn(Symbol name) const { return FindColumn(name) >= 0; }
  size_t size() const { return columns.size(); }

  /// Sum of per-column type widths: the average row length implied by types.
  double RowWidthBytes() const {
    double w = 0;
    for (const auto& c : columns) w += ColumnTypeWidth(c.type);
    return w;
  }

  std::string ToString() const;

  bool operator==(const Schema& o) const { return columns == o.columns; }
};

}  // namespace qo::scope

#endif  // QO_SCOPE_TYPES_H_
