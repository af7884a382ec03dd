#include "optimizer/physical_plan.h"

#include <functional>
#include <utility>

namespace qo::opt {

ExecProfileSlot& ExecProfileSlot::operator=(const ExecProfileSlot& o) {
  // Copy-assignment replaces the plan, so the profile is stale: reset.
  if (this != &o) {
    std::lock_guard<std::mutex> lock(mu_);
    value_.reset();
  }
  return *this;
}

ExecProfileSlot& ExecProfileSlot::operator=(ExecProfileSlot&& o) noexcept {
  if (this != &o) {
    Ptr moved = o.Take();
    std::lock_guard<std::mutex> lock(mu_);
    value_ = std::move(moved);
  }
  return *this;
}

ExecProfileSlot::~ExecProfileSlot() = default;

ExecProfileSlot::Ptr ExecProfileSlot::Load() const {
  std::lock_guard<std::mutex> lock(mu_);
  return value_;
}

ExecProfileSlot::Ptr ExecProfileSlot::TryStore(Ptr p) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (value_ == nullptr) value_ = std::move(p);
  return value_;
}

ExecProfileSlot::Ptr ExecProfileSlot::Take() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(value_);
}

const char* PhysOpKindToString(PhysOpKind k) {
  switch (k) {
    case PhysOpKind::kScan:
      return "Scan";
    case PhysOpKind::kFilter:
      return "Filter";
    case PhysOpKind::kProject:
      return "Project";
    case PhysOpKind::kHashJoin:
      return "HashJoin";
    case PhysOpKind::kBroadcastJoin:
      return "BroadcastJoin";
    case PhysOpKind::kMergeJoin:
      return "MergeJoin";
    case PhysOpKind::kHashAgg:
      return "HashAgg";
    case PhysOpKind::kPartialHashAgg:
      return "PartialHashAgg";
    case PhysOpKind::kStreamAgg:
      return "StreamAgg";
    case PhysOpKind::kUnionAll:
      return "UnionAll";
    case PhysOpKind::kOutput:
      return "Output";
    case PhysOpKind::kExchangeShuffle:
      return "ExchangeShuffle";
    case PhysOpKind::kExchangeBroadcast:
      return "ExchangeBroadcast";
    case PhysOpKind::kExchangeGather:
      return "ExchangeGather";
  }
  return "Unknown";
}

bool IsExchange(PhysOpKind k) {
  return k == PhysOpKind::kExchangeShuffle ||
         k == PhysOpKind::kExchangeBroadcast ||
         k == PhysOpKind::kExchangeGather;
}

double PhysicalPlan::TotalEstimatedCost() const {
  double total = 0.0;
  for (const auto& n : nodes) total += n.local_cost;
  return total;
}

int PhysicalPlan::ExchangeCount() const {
  int count = 0;
  for (const auto& n : nodes) {
    if (IsExchange(n.kind)) ++count;
  }
  return count;
}

std::string PhysicalPlan::ToString() const {
  std::string out;
  std::function<void(int, int)> dump = [&](int id, int depth) {
    const PhysicalNode& n = nodes[id];
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += PhysOpKindToString(n.kind);
    out += '#';
    out += std::to_string(n.id);
    if (n.kind == PhysOpKind::kScan) {
      out += ' ';
      out += SymName(n.table_path);
    }
    if (n.kind == PhysOpKind::kExchangeShuffle) {
      out += " by ";
      out += SymName(n.exchange_key);
    }
    if (n.kind == PhysOpKind::kHashJoin || n.kind == PhysOpKind::kMergeJoin ||
        n.kind == PhysOpKind::kBroadcastJoin) {
      out += " on ";
      out += SymName(n.left_key);
      out += "==";
      out += SymName(n.right_key);
    }
    out += " [rows=";
    out += std::to_string(static_cast<long long>(n.est_rows));
    out += " P=";
    out += std::to_string(n.partitions);
    out += "]\n";
    for (int c : n.children) dump(c, depth + 1);
  };
  for (int r : roots) dump(r, 0);
  return out;
}

}  // namespace qo::opt
