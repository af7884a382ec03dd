#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace qo::opt {

int ChoosePartitions(double est_bytes, double bytes_per_partition,
                     int max_partitions) {
  int p = static_cast<int>(std::ceil(est_bytes / bytes_per_partition));
  return std::clamp(p, 1, max_partitions);
}

double CostModel::LocalCost(const PhysicalNode& node,
                            std::span<const double> child_rows,
                            std::span<const double> child_bytes) const {
  auto rows_in = [&](size_t i) {
    return i < child_rows.size() ? child_rows[i] : 0.0;
  };
  auto bytes_in = [&](size_t i) {
    return i < child_bytes.size() ? child_bytes[i] : 0.0;
  };
  const double p_overhead =
      params_.partition_overhead * static_cast<double>(node.partitions);
  switch (node.kind) {
    case PhysOpKind::kScan:
      return node.est_bytes * params_.scan_byte +
             node.est_rows * params_.scan_row + p_overhead;
    case PhysOpKind::kFilter:
      return rows_in(0) * params_.filter_row;
    case PhysOpKind::kProject:
      return rows_in(0) * params_.project_row;
    case PhysOpKind::kHashJoin:
      // Child 1 is the build side by convention.
      return rows_in(1) * params_.hash_build_row +
             rows_in(0) * params_.hash_probe_row + p_overhead;
    case PhysOpKind::kBroadcastJoin:
      // Every partition builds a full replica of the broadcast side.
      return rows_in(1) * static_cast<double>(node.partitions) *
                 params_.hash_build_row +
             rows_in(0) * params_.hash_probe_row + p_overhead;
    case PhysOpKind::kMergeJoin: {
      double sort_cost = 0.0;
      for (size_t i = 0; i < 2; ++i) {
        double r = rows_in(i);
        if (r > 1.0) sort_cost += r * std::log2(r) * params_.sort_row_log;
      }
      return sort_cost + (rows_in(0) + rows_in(1)) * params_.merge_row +
             p_overhead;
    }
    case PhysOpKind::kHashAgg:
    case PhysOpKind::kPartialHashAgg:
      return rows_in(0) * params_.agg_row +
             node.est_rows * params_.agg_group + p_overhead;
    case PhysOpKind::kStreamAgg: {
      double r = rows_in(0);
      double sort_cost =
          r > 1.0 ? r * std::log2(r) * params_.sort_row_log : 0.0;
      return sort_cost + r * params_.agg_row * 0.5 + p_overhead;
    }
    case PhysOpKind::kUnionAll:
      return (rows_in(0) + rows_in(1)) * params_.union_row;
    case PhysOpKind::kOutput:
      return node.est_bytes * params_.output_byte + p_overhead;
    case PhysOpKind::kExchangeShuffle:
      return bytes_in(0) * params_.shuffle_byte + p_overhead;
    case PhysOpKind::kExchangeBroadcast:
      // Replicated to every consumer partition.
      return bytes_in(0) * params_.broadcast_byte *
                 static_cast<double>(node.partitions) +
             p_overhead;
    case PhysOpKind::kExchangeGather:
      return bytes_in(0) * params_.shuffle_byte + params_.partition_overhead;
  }
  return 0.0;
}

}  // namespace qo::opt
