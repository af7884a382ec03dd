// Catalog of input tables with both ground-truth and optimizer-visible
// statistics.
//
// The split is the heart of the reproduction: the paper's central finding
// (Sec. 5.2) is that optimizer estimated costs do not predict runtime
// outcomes. We model that by giving the optimizer access only to
// `OptimizerStats` (stale / biased), while the execution simulator consumes
// the ground-truth fields.
//
// Storage is interned: paths and column names are resolved to global
// `Symbol` ids at registration, tables live in a dense vector indexed by an
// id->slot array, and per-table column stats live in sym-sorted parallel
// vectors. The compile hot path (`Lookup(Symbol)` / `LookupColumn(Symbol,
// Symbol)`) therefore does integer array reads instead of
// `unordered_map<std::string>` probes; the string overloads survive for
// registration-time and diagnostic callers.
#ifndef QO_SCOPE_CATALOG_H_
#define QO_SCOPE_CATALOG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"

namespace qo::scope {

/// Per-column statistics. `ndv` is the number of distinct values.
struct ColumnStats {
  double true_ndv = 1000.0;
  double est_ndv = 1000.0;  ///< what the optimizer believes
};

/// Statistics for one input table.
struct TableStats {
  double true_rows = 1e6;
  double est_rows = 1e6;  ///< optimizer-visible row count (may be stale)
  double avg_row_bytes = 100.0;
  std::unordered_map<std::string, ColumnStats> columns;

  double true_bytes() const { return true_rows * avg_row_bytes; }
  double est_bytes() const { return est_rows * avg_row_bytes; }
};

/// Maps input paths (the FROM "...") strings in EXTRACT statements) to their
/// statistics.
class Catalog {
 public:
  /// Registers stats for a path, replacing any previous entry.
  void RegisterTable(const std::string& path, TableStats stats);

  /// Looks up stats; NotFound if the path was never registered.
  /// Thread-safety: const read; safe to call concurrently as long as no
  /// thread is calling RegisterTable (the runtime only reads catalogs).
  Result<const TableStats*> Lookup(const std::string& path) const;

  /// Interned-id lookup: one bounds check + one array read.
  Result<const TableStats*> Lookup(Symbol path) const;

  bool Has(const std::string& path) const {
    return FindTable(Sym(path)) != nullptr;
  }
  size_t size() const { return tables_.size(); }

  /// Column stats for `path`.`column`; falls back to a default-constructed
  /// ColumnStats when the column was never described. The reference stays
  /// valid until the table is re-registered.
  const ColumnStats& LookupColumn(const std::string& path,
                                  const std::string& column) const;

  /// Interned-id column lookup: dense-slot table read plus a search of the
  /// table's sym-sorted column vector (integer compares only).
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
    TableStats stats;           ///< registration payload (string-keyed map)
    std::vector<Symbol> col_syms;         ///< sorted ascending
    std::vector<ColumnStats> col_stats;   ///< parallel to col_syms
  };

  const InternedTable* FindTable(Symbol path) const {
    if (path >= slot_by_sym_.size()) return nullptr;
    int32_t slot = slot_by_sym_[path];
    return slot < 0 ? nullptr : &tables_[static_cast<size_t>(slot)];
  }

  std::vector<InternedTable> tables_;   ///< dense, registration order
  std::vector<int32_t> slot_by_sym_;    ///< symbol id -> slot in tables_, -1
  /// Commutative sum of per-table content hashes (see StatsFingerprint).
  uint64_t fingerprint_sum_ = 0;
};

}  // namespace qo::scope

#endif  // QO_SCOPE_CATALOG_H_
