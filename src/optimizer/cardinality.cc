#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

#include "common/kernels/kernels.h"

namespace qo::opt {

namespace {

double CapNdv(double ndv, double rows) {
  return std::max(1.0, std::min(ndv, rows));
}

/// Bulk CapNdv over a whole NDV column: x = max(1.0, min(x, rows)) per
/// entry, through the dispatched clamp kernel. NDVs and row counts are
/// finite by construction (the kernel's NaN-free precondition).
void CapNdvAll(NdvMap* ndv, double rows) {
  kernels::Active().clamp_range(ndv->MutableValues(), ndv->size(), 1.0, rows);
}

}  // namespace

RelStats StatsDeriver::Scan(Symbol table_path,
                            const scope::Schema& schema) const {
  RelStats out;
  // One block per column: a grown-on-demand map reallocated both columns
  // log(n) times per scan.
  out.ndv.Reserve(schema.columns.size());
  auto stats = catalog_.Lookup(table_path);
  if (!stats.ok()) {
    // Unregistered input: assume a small table so compilation can proceed.
    out.rows = 1000.0;
    for (const auto& col : schema.columns) {
      out.ndv[col.name] = 100.0;
    }
    return out;
  }
  const scope::TableStats& t = *stats.value();
  out.rows = mode_ == StatsMode::kTrue ? t.true_rows : t.est_rows;
  for (const auto& col : schema.columns) {
    const scope::ColumnStats& cs = catalog_.LookupColumn(table_path, col.name);
    double ndv = mode_ == StatsMode::kTrue ? cs.true_ndv : cs.est_ndv;
    out.ndv[col.name] = CapNdv(ndv, out.rows);
  }
  return out;
}

double StatsDeriver::PredicateSelectivity(const scope::BoundPredicate& pred,
                                          const RelStats& input) const {
  if (mode_ == StatsMode::kTrue && pred.true_selectivity >= 0.0) {
    return pred.true_selectivity;
  }
  // Textbook heuristics (System R defaults), using the mode's NDV.
  double ndv = std::max(1.0, input.NdvOf(pred.column));
  switch (pred.op) {
    case scope::CompareOp::kEq:
      return 1.0 / ndv;
    case scope::CompareOp::kNe:
      return 1.0 - 1.0 / ndv;
    case scope::CompareOp::kLt:
    case scope::CompareOp::kLe:
    case scope::CompareOp::kGt:
    case scope::CompareOp::kGe:
      return 1.0 / 3.0;
  }
  return 0.5;
}

RelStats StatsDeriver::Filter(
    const RelStats& input,
    const std::vector<scope::BoundPredicate>& predicates) const {
  RelStats out = input;
  double sel = 1.0;
  for (const auto& pred : predicates) {
    sel *= PredicateSelectivity(pred, input);
  }
  out.rows = std::max(0.0, input.rows * sel);
  CapNdvAll(&out.ndv, out.rows);
  return out;
}

RelStats StatsDeriver::Project(
    const RelStats& input,
    const std::vector<scope::BoundSelectItem>& projections) const {
  RelStats out;
  out.rows = input.rows;
  size_t entries = 0;
  for (const auto& item : projections) {
    entries += item.column == kSymStar ? input.ndv.size() : 1;
  }
  out.ndv.Reserve(entries);  // the `*` copy-assign below reuses the block
  for (const auto& item : projections) {
    if (item.column == kSymStar) {
      out.ndv = input.ndv;
      continue;
    }
    out.ndv[item.output] = input.NdvOf(item.column);
  }
  return out;
}

RelStats StatsDeriver::Join(const RelStats& left, const RelStats& right,
                            Symbol left_key, Symbol right_key,
                            double true_fanout) const {
  RelStats out;
  if (mode_ == StatsMode::kTrue) {
    // Ground truth: FK-style fanout per left row.
    out.rows = left.rows * true_fanout;
  } else {
    // Classic equi-join estimate: |L||R| / max(ndv_l, ndv_r).
    double ndv_l = std::max(1.0, left.NdvOf(left_key));
    double ndv_r = std::max(1.0, right.NdvOf(right_key));
    out.rows = left.rows * right.rows / std::max(ndv_l, ndv_r);
  }
  out.rows = std::max(0.0, out.rows);
  // Sorted two-pointer merge of the key columns (left wins on a shared
  // column, as the insert-then-skip loop this replaces did), then one bulk
  // cap over the merged value column.
  const std::vector<Symbol>& lk = left.ndv.keys();
  const std::vector<double>& lv = left.ndv.values();
  const std::vector<Symbol>& rk = right.ndv.keys();
  const std::vector<double>& rv = right.ndv.values();
  out.ndv.Reserve(lk.size() + rk.size());
  size_t i = 0, j = 0;
  while (i < lk.size() && j < rk.size()) {
    if (lk[i] < rk[j]) {
      out.ndv.AppendSorted(lk[i], lv[i]);
      ++i;
    } else if (rk[j] < lk[i]) {
      out.ndv.AppendSorted(rk[j], rv[j]);
      ++j;
    } else {
      out.ndv.AppendSorted(lk[i], lv[i]);
      ++i;
      ++j;
    }
  }
  for (; i < lk.size(); ++i) out.ndv.AppendSorted(lk[i], lv[i]);
  for (; j < rk.size(); ++j) out.ndv.AppendSorted(rk[j], rv[j]);
  CapNdvAll(&out.ndv, out.rows);
  return out;
}

RelStats StatsDeriver::Aggregate(
    const RelStats& input, const std::vector<Symbol>& group_by,
    const std::vector<scope::BoundSelectItem>& aggs) const {
  RelStats out;
  if (group_by.empty()) {
    out.rows = input.rows > 0 ? 1.0 : 0.0;
  } else {
    double groups = 1.0;
    for (Symbol g : group_by) {
      groups *= std::max(1.0, input.NdvOf(g));
    }
    // Damped product: full independence over-counts combined NDVs badly.
    groups = std::pow(groups, mode_ == StatsMode::kEstimated ? 1.0 : 0.9);
    out.rows = std::min(groups, input.rows);
  }
  out.ndv.Reserve(group_by.size() + aggs.size());
  for (Symbol g : group_by) {
    out.ndv[g] = CapNdv(input.NdvOf(g), out.rows);
  }
  for (const auto& item : aggs) {
    out.ndv[item.output] = out.rows;
  }
  return out;
}

RelStats StatsDeriver::PartialAggregate(const RelStats& input,
                                        const std::vector<Symbol>& group_by,
                                        int partitions) const {
  RelStats out = input;
  out.rows = PartialAggregateRows(input, group_by, partitions);
  CapNdvAll(&out.ndv, out.rows);
  return out;
}

double StatsDeriver::PartialAggregateRows(const RelStats& input,
                                          const std::vector<Symbol>& group_by,
                                          int partitions) const {
  double groups = 1.0;
  for (Symbol g : group_by) {
    groups *= std::max(1.0, input.NdvOf(g));
  }
  groups = std::min(groups, input.rows);
  return std::min(input.rows, groups * std::max(1, partitions));
}

RelStats StatsDeriver::UnionAll(const RelStats& left,
                                const RelStats& right) const {
  RelStats out;
  out.rows = left.rows + right.rows;
  // Output keys are exactly the left keys (sorted): probe the right column
  // with a forward-only pointer instead of a binary search per key, falling
  // back to right.rows for absent columns (the NdvOf default).
  const std::vector<Symbol>& lk = left.ndv.keys();
  const std::vector<double>& lv = left.ndv.values();
  const std::vector<Symbol>& rk = right.ndv.keys();
  const std::vector<double>& rv = right.ndv.values();
  out.ndv.Reserve(lk.size());
  size_t j = 0;
  for (size_t i = 0; i < lk.size(); ++i) {
    while (j < rk.size() && rk[j] < lk[i]) ++j;
    const double right_ndv =
        j < rk.size() && rk[j] == lk[i] ? rv[j] : right.rows;
    out.ndv.AppendSorted(lk[i], lv[i] + right_ndv);
  }
  CapNdvAll(&out.ndv, out.rows);
  return out;
}

}  // namespace qo::opt
