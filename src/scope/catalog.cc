#include "scope/catalog.h"

#include <algorithm>

#include "common/hash.h"

namespace qo::scope {

namespace {

/// Content hash of one interned table entry. Mixes interned ids instead of
/// hashing path/column bytes; equal strings share one global id, so content
/// equality is preserved within a process. Avalanched so entries can be
/// combined (and incrementally removed) with plain + / - arithmetic.
uint64_t TableHash(Symbol path, const TableStats& stats) {
  uint64_t t = HashU64(path, 0xcafef00dd15ea5e5ULL);
  t = HashDouble(stats.true_rows, t);
  t = HashDouble(stats.est_rows, t);
  t = HashDouble(stats.avg_row_bytes, t);
  uint64_t cols = stats.columns.size();
  // Column order must not matter: combine with +.
  for (const auto& [sym, cs] : stats.columns) {
    uint64_t c = HashU64(sym, 0xc01d57a75ULL);
    c = HashDouble(cs.true_ndv, c);
    c = HashDouble(cs.est_ndv, c);
    cols += MixHash(c);
  }
  t = HashU64(cols, t);
  return MixHash(t);
}

}  // namespace

ColumnStats& ColumnStatsMap::Set(Symbol column) {
  for (Entry& e : entries_) {
    if (e.first == column) return e.second;
  }
  return entries_.emplace_back(column, ColumnStats{}).second;
}

const ColumnStats* ColumnStatsMap::FindSorted(Symbol column) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), column,
      [](const Entry& e, Symbol sym) { return e.first < sym; });
  if (it == entries_.end() || it->first != column) return nullptr;
  return &it->second;
}

void Catalog::RegisterTable(Symbol path, TableStats stats) {
  std::vector<ColumnStatsMap::Entry>& cols = stats.columns.entries_;
  std::sort(cols.begin(), cols.end(),
            [](const ColumnStatsMap::Entry& a, const ColumnStatsMap::Entry& b) {
              return a.first < b.first;
            });
  const uint64_t hash = TableHash(path, stats);
  // Maintain the fingerprint sum incrementally: the compile path reads
  // StatsFingerprint once per cache lookup, so it must stay O(1) there.
  fingerprint_sum_ += hash;
  for (InternedTable& t : tables_) {
    if (t.path == path) {
      fingerprint_sum_ -= t.content_hash;
      t.content_hash = hash;
      t.stats = std::move(stats);
      return;
    }
  }
  tables_.push_back({path, hash, std::move(stats)});
}

Result<const TableStats*> Catalog::Lookup(const std::string& path) const {
  const InternedTable* t = FindTable(SymbolTable::Global().Find(path));
  if (t == nullptr) {
    return Status::NotFound("table not in catalog: " + path);
  }
  return &t->stats;
}

Result<const TableStats*> Catalog::Lookup(Symbol path) const {
  const InternedTable* t = FindTable(path);
  if (t == nullptr) {
    return Status::NotFound("table not in catalog: " + SymName(path));
  }
  return &t->stats;
}

uint64_t Catalog::StatsFingerprint() const {
  // Registration order must not matter: fingerprint_sum_ is a commutative
  // sum of per-entry hashes, so the result is a pure function of content.
  return MixHash(0x9e3779b97f4a7c15ULL + tables_.size() + fingerprint_sum_);
}

const ColumnStats& Catalog::LookupColumn(Symbol path, Symbol column) const {
  static const ColumnStats kDefaultColumnStats{};
  const InternedTable* t = FindTable(path);
  const ColumnStats* cs =
      t == nullptr ? nullptr : t->stats.columns.FindSorted(column);
  return cs == nullptr ? kDefaultColumnStats : *cs;
}

const ColumnStats& Catalog::LookupColumn(const std::string& path,
                                         const std::string& column) const {
  const SymbolTable& table = SymbolTable::Global();
  return LookupColumn(table.Find(path), table.Find(column));
}

}  // namespace qo::scope
