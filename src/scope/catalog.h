// Catalog of input tables with both ground-truth and optimizer-visible
// statistics.
//
// The split is the heart of the reproduction: the paper's central finding
// (Sec. 5.2) is that optimizer estimated costs do not predict runtime
// outcomes. We model that by giving the optimizer access only to
// `OptimizerStats` (stale / biased), while the execution simulator consumes
// the ground-truth fields.
//
// Storage is interned and sized by the catalog's own tables: paths and
// column names are resolved to global `Symbol` ids when they are added,
// tables live in a short vector scanned by path id (a generated job has at
// most five), and each table's column stats are one sym-sorted vector. A
// catalog therefore costs O(its tables) to build, copy and hold, however
// many symbols the process has interned. The compile hot path
// (`Lookup(Symbol)` / `LookupColumn(Symbol, Symbol)`) compares integers
// only; the string overloads probe with `SymbolTable::Find`, so a path or
// column that was never interned misses without growing the table.
#ifndef QO_SCOPE_CATALOG_H_
#define QO_SCOPE_CATALOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"

namespace qo::scope {

/// Per-column statistics. `ndv` is the number of distinct values.
struct ColumnStats {
  double true_ndv = 1000.0;
  double est_ndv = 1000.0;  ///< what the optimizer believes
};

/// A table's column statistics keyed by interned column name: one flat
/// vector, since a table has a few dozen columns at most. Registration
/// sorts it by symbol.
class ColumnStatsMap {
 public:
  using Entry = std::pair<Symbol, ColumnStats>;

  /// The stats of `column`, default-constructed on first use. Interns the
  /// name, so it is for building a table, not for probing one.
  ColumnStats& operator[](std::string_view column) {
    return Set(Sym(column));
  }
  /// The stats of an interned column, default-constructed on first use.
  ColumnStats& Set(Symbol column);

  void reserve(size_t n) { entries_.reserve(n); }
  size_t size() const { return entries_.size(); }
  std::vector<Entry>::const_iterator begin() const { return entries_.begin(); }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

 private:
  friend class Catalog;  // sorts entries_ at registration
  /// The stats of `column`, or null; entries_ must be sorted by symbol.
  const ColumnStats* FindSorted(Symbol column) const;

  std::vector<Entry> entries_;
};

/// Statistics for one input table.
struct TableStats {
  double true_rows = 1e6;
  double est_rows = 1e6;  ///< optimizer-visible row count (may be stale)
  double avg_row_bytes = 100.0;
  ColumnStatsMap columns;

  double true_bytes() const { return true_rows * avg_row_bytes; }
  double est_bytes() const { return est_rows * avg_row_bytes; }
};

/// Maps input paths (the FROM "...") strings in EXTRACT statements) to their
/// statistics.
class Catalog {
 public:
  /// Registers stats for a path, replacing any previous entry.
  void RegisterTable(const std::string& path, TableStats stats) {
    RegisterTable(Sym(path), std::move(stats));
  }
  /// Same, for an interned path.
  void RegisterTable(Symbol path, TableStats stats);

  /// Looks up stats; NotFound if the path was never registered.
  /// Thread-safety: const read; safe to call concurrently as long as no
  /// thread is calling RegisterTable (the runtime only reads catalogs).
  Result<const TableStats*> Lookup(const std::string& path) const;

  /// Interned-id lookup: a scan of the catalog's few tables.
  Result<const TableStats*> Lookup(Symbol path) const;

  bool Has(const std::string& path) const {
    return FindTable(SymbolTable::Global().Find(path)) != nullptr;
  }
  size_t size() const { return tables_.size(); }

  /// Column stats for `path`.`column`; falls back to a default-constructed
  /// ColumnStats when the column was never described. The reference stays
  /// valid until the table is re-registered.
  const ColumnStats& LookupColumn(const std::string& path,
                                  const std::string& column) const;

  /// Interned-id column lookup: the table scan plus a binary search of the
  /// table's sym-sorted columns (integer compares only).
  const ColumnStats& LookupColumn(Symbol path, Symbol column) const;

  /// Deterministic content hash over every registered table and column
  /// statistic (true + optimizer-visible). Two catalogs with identical
  /// statistics produce identical fingerprints regardless of registration
  /// order — this keys the compilation cache (src/cache/), where any stats
  /// drift must invalidate by missing. O(1): maintained incrementally by
  /// RegisterTable, so the compile hot path pays nothing per lookup.
  /// Hashes interned ids, not strings: valid within one process only.
  uint64_t StatsFingerprint() const;

 private:
  struct InternedTable {
    Symbol path = kNoSymbol;
    uint64_t content_hash = 0;  ///< incremental fingerprint contribution
    TableStats stats;           ///< columns sorted by symbol
  };

  const InternedTable* FindTable(Symbol path) const {
    for (const InternedTable& t : tables_) {
      if (t.path == path) return &t;
    }
    return nullptr;
  }

  std::vector<InternedTable> tables_;  ///< registration order
  /// Commutative sum of per-table content hashes (see StatsFingerprint).
  uint64_t fingerprint_sum_ = 0;
};

}  // namespace qo::scope

#endif  // QO_SCOPE_CATALOG_H_
