#include "optimizer/optimizer.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "obs/metrics.h"
#include "optimizer/cardinality.h"

namespace qo::opt {

namespace {

using scope::LogicalOpKind;
using scope::LogicalNode;
using scope::LogicalPlan;
using scope::Schema;
// The plan's bound forms, whose names are all symbols.
using Predicate = scope::BoundPredicate;
using SelectItem = scope::BoundSelectItem;

// ---------------------------------------------------------------------------
// Physical properties (data distribution) requested/delivered during search.
// ---------------------------------------------------------------------------

struct PhysProp {
  enum class Kind {
    kAny,        ///< request only: no requirement
    kRandom,     ///< delivered only: partitioned with no alignment
    kHash,       ///< hash partitioned on `key`
    kBroadcast,  ///< replicated to `partitions_hint` consumer partitions
    kSingleton,  ///< single partition
  };
  Kind kind = Kind::kAny;
  Symbol key = kSymEmpty;   ///< hash key column; becomes exchange_key
  int partitions_hint = 0;  ///< consumer partitions for kBroadcast requests

  static PhysProp Any() { return {Kind::kAny, kSymEmpty, 0}; }
  static PhysProp Random() { return {Kind::kRandom, kSymEmpty, 0}; }
  static PhysProp Hash(Symbol k) { return {Kind::kHash, k, 0}; }
  static PhysProp Broadcast(int consumers) {
    return {Kind::kBroadcast, kSymEmpty, consumers};
  }
  static PhysProp Singleton() { return {Kind::kSingleton, kSymEmpty, 0}; }

  uint64_t HashValue() const {
    // Injective pack of (kind, partitions_hint, key): distinct properties
    // can never collide in the winners table.
    return (static_cast<uint64_t>(kind) << 56) |
           (static_cast<uint64_t>(static_cast<uint32_t>(partitions_hint) &
                                  0xffffffu)
            << 32) |
           static_cast<uint64_t>(key);
  }

  /// True if a delivered property satisfies this requirement.
  bool SatisfiedBy(const PhysProp& delivered) const {
    switch (kind) {
      case Kind::kAny:
        return true;
      case Kind::kHash:
        return (delivered.kind == Kind::kHash && delivered.key == key) ||
               delivered.kind == Kind::kSingleton;
      case Kind::kSingleton:
        return delivered.kind == Kind::kSingleton;
      case Kind::kBroadcast:
        return delivered.kind == Kind::kBroadcast;
      case Kind::kRandom:
        return true;  // never used as a requirement
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// Normalization: destructive rewrites applied before cost-based search.
// Real optimizers apply these heuristically rather than cost-based, which is
// exactly why disabling one can occasionally *improve* the final plan.
// ---------------------------------------------------------------------------

class Normalizer {
 public:
  Normalizer(LogicalPlan* plan, const RuleConfig& config)
      : plan_(plan), config_(config) {}

  /// Runs all enabled rewrites to fixpoint; returns the bit set of rules
  /// that actually changed the plan.
  BitVector256 Run() {
    memo_.assign(plan_->nodes.size(), -1);
    for (int& root : plan_->roots) root = Rewrite(root);
    PruneColumns();
    return fired_;
  }

 private:
  bool Enabled(int rule) const { return config_.IsEnabled(rule); }

  int Rewrite(int id) {
    if (memo_[id] >= 0) return memo_[id];
    LogicalNode node = plan_->node(id);  // copy: children may be replaced
    for (int& c : node.children) c = Rewrite(c);
    int current = plan_->AddNode(std::move(node));
    // Apply local rules until none fires (bounded for safety).
    for (int iter = 0; iter < 16; ++iter) {
      int next = ApplyLocalRules(current);
      if (next == current) break;
      current = next;
    }
    memo_[id] = current;
    return current;
  }

  /// Applies local rules to a *newly created* node until fixpoint (new
  /// nodes are not covered by the id-based memo in Rewrite).
  int RunLocalFixpoint(int id) {
    for (int iter = 0; iter < 16; ++iter) {
      int next = ApplyLocalRules(id);
      if (next == id) break;
      id = next;
    }
    return id;
  }

  int ApplyLocalRules(int id) {
    const LogicalNode& n = plan_->node(id);
    if (n.kind != LogicalOpKind::kFilter) {
      if (n.kind == LogicalOpKind::kProject && Enabled(rules::kProjectMerge)) {
        int merged = TryProjectMerge(id);
        if (merged != id) return merged;
      }
      return id;
    }
    const LogicalNode& child = plan_->node(n.children[0]);
    switch (child.kind) {
      case LogicalOpKind::kFilter:
        if (Enabled(rules::kFilterMerge)) return MergeFilters(id);
        break;
      case LogicalOpKind::kProject:
        if (Enabled(rules::kFilterPushdownBelowProject)) {
          int pushed = PushFilterBelowProject(id);
          if (pushed != id) return pushed;
        }
        break;
      case LogicalOpKind::kJoin: {
        int pushed = PushFilterIntoJoin(id);
        if (pushed != id) return pushed;
        break;
      }
      case LogicalOpKind::kUnionAll:
        if (Enabled(rules::kFilterPushdownBelowUnion)) {
          return PushFilterBelowUnion(id);
        }
        break;
      case LogicalOpKind::kScan:
        if (Enabled(rules::kFilterIntoScan)) return PushFilterIntoScan(id);
        break;
      default:
        break;
    }
    return id;
  }

  int MergeFilters(int id) {
    const LogicalNode& outer = plan_->node(id);
    const LogicalNode& inner = plan_->node(outer.children[0]);
    LogicalNode merged = inner;
    merged.predicates.insert(merged.predicates.end(),
                             outer.predicates.begin(),
                             outer.predicates.end());
    fired_.Set(rules::kFilterMerge);
    return plan_->AddNode(std::move(merged));
  }

  int PushFilterBelowProject(int id) {
    const LogicalNode& filter = plan_->node(id);
    const LogicalNode& project = plan_->node(filter.children[0]);
    const Schema& input = plan_->node(project.children[0]).schema;
    // Translate each predicate column through the projection; bail if any
    // column is computed (aggregates never appear in kProject).
    std::vector<Predicate> translated;
    for (const Predicate& p : filter.predicates) {
      const SelectItem* source = nullptr;
      for (const SelectItem& item : project.projections) {
        if (item.output == p.column) {
          source = &item;
          break;
        }
      }
      if (source == nullptr || source->column == kSymEmpty ||
          !input.HasColumn(source->column)) {
        return id;
      }
      Predicate q = p;
      q.column = source->column;
      translated.push_back(std::move(q));
    }
    LogicalNode new_filter;
    new_filter.kind = LogicalOpKind::kFilter;
    new_filter.children = {project.children[0]};
    new_filter.predicates = std::move(translated);
    new_filter.schema = input;
    int nf = RunLocalFixpoint(plan_->AddNode(std::move(new_filter)));
    LogicalNode new_project = project;
    new_project.children = {nf};
    fired_.Set(rules::kFilterPushdownBelowProject);
    return plan_->AddNode(std::move(new_project));
  }

  int PushFilterIntoJoin(int id) {
    const LogicalNode filter = plan_->node(id);
    const LogicalNode join = plan_->node(filter.children[0]);
    const Schema& left = plan_->node(join.children[0]).schema;
    const Schema& right = plan_->node(join.children[1]).schema;
    std::vector<Predicate> to_left, to_right, rest;
    for (const Predicate& p : filter.predicates) {
      if (left.HasColumn(p.column) &&
          Enabled(rules::kFilterPushdownIntoJoinLeft)) {
        to_left.push_back(p);
      } else if (right.HasColumn(p.column) &&
                 Enabled(rules::kFilterPushdownIntoJoinRight)) {
        to_right.push_back(p);
      } else {
        rest.push_back(p);
      }
    }
    if (to_left.empty() && to_right.empty()) return id;
    LogicalNode new_join = join;
    if (!to_left.empty()) {
      LogicalNode f;
      f.kind = LogicalOpKind::kFilter;
      f.children = {join.children[0]};
      f.predicates = std::move(to_left);
      f.schema = left;
      new_join.children[0] = RunLocalFixpoint(plan_->AddNode(std::move(f)));
      fired_.Set(rules::kFilterPushdownIntoJoinLeft);
    }
    if (!to_right.empty()) {
      LogicalNode f;
      f.kind = LogicalOpKind::kFilter;
      f.children = {join.children[1]};
      f.predicates = std::move(to_right);
      f.schema = right;
      new_join.children[1] = RunLocalFixpoint(plan_->AddNode(std::move(f)));
      fired_.Set(rules::kFilterPushdownIntoJoinRight);
    }
    int nj = plan_->AddNode(std::move(new_join));
    if (rest.empty()) return nj;
    LogicalNode new_filter = filter;
    new_filter.children = {nj};
    new_filter.predicates = std::move(rest);
    return plan_->AddNode(std::move(new_filter));
  }

  int PushFilterBelowUnion(int id) {
    const LogicalNode filter = plan_->node(id);
    const LogicalNode union_node = plan_->node(filter.children[0]);
    LogicalNode new_union = union_node;
    for (int side = 0; side < 2; ++side) {
      LogicalNode f;
      f.kind = LogicalOpKind::kFilter;
      f.children = {union_node.children[side]};
      f.predicates = filter.predicates;
      f.schema = plan_->node(union_node.children[side]).schema;
      new_union.children[side] = RunLocalFixpoint(plan_->AddNode(std::move(f)));
    }
    fired_.Set(rules::kFilterPushdownBelowUnion);
    return plan_->AddNode(std::move(new_union));
  }

  int PushFilterIntoScan(int id) {
    const LogicalNode& filter = plan_->node(id);
    LogicalNode scan = plan_->node(filter.children[0]);
    scan.predicates.insert(scan.predicates.end(), filter.predicates.begin(),
                           filter.predicates.end());
    fired_.Set(rules::kFilterIntoScan);
    return plan_->AddNode(std::move(scan));
  }

  int TryProjectMerge(int id) {
    const LogicalNode& outer = plan_->node(id);
    const LogicalNode& inner = plan_->node(outer.children[0]);
    if (inner.kind != LogicalOpKind::kProject) return id;
    std::vector<SelectItem> merged_items;
    for (const SelectItem& item : outer.projections) {
      const SelectItem* source = nullptr;
      for (const SelectItem& in_item : inner.projections) {
        if (in_item.output == item.column) {
          source = &in_item;
          break;
        }
      }
      if (source == nullptr || source->column == kSymEmpty) return id;
      SelectItem m;
      m.column = source->column;
      m.alias = item.output;
      m.output = m.alias == kSymEmpty ? m.column : m.alias;
      merged_items.push_back(m);
    }
    LogicalNode merged = outer;
    merged.children = {inner.children[0]};
    merged.projections = std::move(merged_items);
    fired_.Set(rules::kProjectMerge);
    return plan_->AddNode(std::move(merged));
  }

  /// Column pruning below joins and aggregates: inserts narrowing Projects
  /// when a child carries columns no consumer needs.
  void PruneColumns() {
    // Only joins and aggregates are pruned below; consult the rule bits only
    // when such a node exists so configs differing in the prune rules on
    // join/agg-free jobs stay footprint-compatible (cross-config memo).
    std::vector<int> order = TopologicalOrder();
    bool has_join = false, has_agg = false;
    for (int id : order) {
      LogicalOpKind k = plan_->node(id).kind;
      has_join |= k == LogicalOpKind::kJoin;
      has_agg |= k == LogicalOpKind::kAggregate;
    }
    bool join_on = has_join && Enabled(rules::kProjectPruneBelowJoin);
    bool agg_on = has_agg && Enabled(rules::kProjectPruneBelowAgg);
    if (!join_on && !agg_on) return;
    // Required column sets, indexed by node id and propagated from the
    // roots down.
    std::vector<ColumnSet> required(plan_->nodes.size());
    for (int id : order) {
      required[id].reserve(plan_->node(id).schema.columns.size());
    }
    for (int root : plan_->roots) {
      for (const auto& c : plan_->node(root).schema.columns) {
        Require(&required[root], c.name);
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const LogicalNode& n = plan_->node(*it);
      ColumnSet& req = required[*it];
      // Columns this node itself consumes.
      for (const Predicate& p : n.predicates) Require(&req, p.column);
      for (const SelectItem& s : n.projections) {
        if (s.column != kSymStar) Require(&req, s.column);
      }
      for (Symbol g : n.group_by) Require(&req, g);
      if (n.kind == LogicalOpKind::kJoin) {
        Require(&req, n.left_key);
        Require(&req, n.right_key);
      }
      for (int c : n.children) {
        const Schema& cs = plan_->node(c).schema;
        // Every operator passes the columns required of it through to the
        // child that has them, as do the columns it consumes itself.
        for (const auto& col : cs.columns) {
          if (Contains(req, col.name)) Require(&required[c], col.name);
        }
        for (Symbol col : req) {
          if (cs.HasColumn(col)) Require(&required[c], col);
        }
      }
    }
    // Insert pruning projects below joins/aggregates. Note: AddNode may
    // reallocate the arena, so nodes are re-fetched by id after every
    // insertion instead of held by reference.
    std::vector<const scope::BoundColumn*> kept;
    for (int id : order) {
      bool is_join = plan_->node(id).kind == LogicalOpKind::kJoin;
      bool is_agg = plan_->node(id).kind == LogicalOpKind::kAggregate;
      if ((is_join && !join_on) || (is_agg && !agg_on) ||
          (!is_join && !is_agg)) {
        continue;
      }
      const size_t n_children = plan_->node(id).children.size();
      for (size_t ci = 0; ci < n_children; ++ci) {
        int c = plan_->node(id).children[ci];
        if (plan_->node(c).kind == LogicalOpKind::kProject) continue;
        // `kept` points into c's schema: valid until the AddNode below.
        kept.clear();
        for (const auto& col : plan_->node(c).schema.columns) {
          if (Contains(required[c], col.name)) kept.push_back(&col);
        }
        if (kept.empty() ||
            kept.size() >= plan_->node(c).schema.columns.size()) {
          continue;
        }
        // Prune only when it meaningfully narrows rows; marginal projects
        // cost more CPU than the width they save.
        double kept_width = 0.0;
        for (const scope::BoundColumn* col : kept) {
          kept_width += scope::ColumnTypeWidth(col->type);
        }
        if (kept_width > 0.75 * plan_->node(c).schema.RowWidthBytes()) {
          continue;
        }
        LogicalNode proj;
        proj.kind = LogicalOpKind::kProject;
        proj.children = {c};
        proj.projections.reserve(kept.size());
        proj.schema.columns.reserve(kept.size());
        for (const scope::BoundColumn* col : kept) {
          proj.projections.push_back(SelectItem::PassThrough(col->name));
          proj.schema.columns.push_back(*col);
        }
        int proj_id = plan_->AddNode(std::move(proj));
        plan_->node(id).children[ci] = proj_id;
        fired_.Set(is_join ? rules::kProjectPruneBelowJoin
                           : rules::kProjectPruneBelowAgg);
      }
    }
  }

  /// A duplicate-free column set. Only membership is read, and a node needs
  /// a handful of columns, so a linearly probed vector beats a hash set.
  using ColumnSet = std::vector<Symbol>;

  static bool Contains(const ColumnSet& set, Symbol col) {
    return std::find(set.begin(), set.end(), col) != set.end();
  }
  static void Require(ColumnSet* set, Symbol col) {
    if (!Contains(*set, col)) set->push_back(col);
  }

  std::vector<int> TopologicalOrder() const {
    std::vector<int> order;
    order.reserve(plan_->nodes.size());
    std::vector<char> seen(plan_->nodes.size(), 0);
    for (int r : plan_->roots) Visit(r, &seen, &order);
    return order;  // children before parents
  }

  void Visit(int id, std::vector<char>* seen, std::vector<int>* order) const {
    if ((*seen)[id]) return;
    (*seen)[id] = 1;
    for (int c : plan_->node(id).children) Visit(c, seen, order);
    order->push_back(id);
  }

  LogicalPlan* plan_;
  const RuleConfig& config_;
  BitVector256 fired_;
  /// Rewritten id per input node id (-1 until rewritten). Rewrite only
  /// visits input nodes: the roots and, recursively, their children.
  std::vector<int> memo_;
};

// ---------------------------------------------------------------------------
// Memo structures.
// ---------------------------------------------------------------------------

struct MExpr {
  LogicalOpKind kind = LogicalOpKind::kScan;
  std::vector<int> children;  ///< group ids
  Symbol table_path = kSymEmpty;
  std::vector<Predicate> predicates;
  std::vector<SelectItem> projections;
  std::vector<Symbol> group_by;
  Symbol left_key = kSymEmpty;
  Symbol right_key = kSymEmpty;
  double true_fanout = 1.0;
  Symbol output_path = kSymEmpty;
  bool partial_agg = false;  ///< local pre-aggregation (eager agg)
  BitVector256 derivation;   ///< transformation rules that produced this expr
  /// Row of the search's `applied` table: a seed expr's group id, or, for
  /// an expr the search added, the seed's group count plus its arena index.
  int id = -1;
  /// Fingerprint(), stored when the expr enters its group (children are
  /// group ids, so it never changes afterwards).
  uint64_t fingerprint = 0;

  /// Structural identity hash over interned names and literal bytes. Field
  /// counts are chained in as separators so adjacent lists can't alias. A
  /// 64-bit collision within one group's handful of exprs (~2^-64 per pair)
  /// would only drop a duplicate alternative, never corrupt a plan.
  uint64_t Fingerprint() const {
    uint64_t h = HashU64(static_cast<uint64_t>(kind), 0x9e3779b97f4a7c15ULL);
    h = HashU64(children.size(), h);
    for (int c : children) h = HashU64(static_cast<uint64_t>(c), h);
    h = HashU64(table_path, h);
    h = HashU64(left_key, h);
    h = HashU64(right_key, h);
    h = HashU64(partial_agg ? 1 : 0, h);
    h = HashU64(predicates.size(), h);
    for (const Predicate& p : predicates) {
      h = HashU64(p.column, h);
      h = HashU64(static_cast<uint64_t>(p.op), h);
      h = HashString(p.literal, h);
    }
    h = HashU64(projections.size(), h);
    for (const SelectItem& s : projections) {
      h = HashU64(static_cast<uint64_t>(s.agg), h);
      h = HashU64(s.column, h);
      h = HashU64(s.alias, h);
    }
    h = HashU64(group_by.size(), h);
    for (Symbol g : group_by) h = HashU64(g, h);
    return MixHash(h);
  }
};

/// What every alternative of a group shares, derived once when the group is
/// made and never changed afterwards.
struct GroupProps {
  /// Output schema, shared (refcount bump, not column-vector copy) into
  /// every PhysicalNode implemented from this group. Never null.
  std::shared_ptr<const Schema> schema;
  RelStats est;
  RelStats tru;
};

}  // namespace

struct MemoSeed {
  /// Group g's only expression and its properties, inputs before
  /// consumers, so g is also the expr's `id`.
  struct BaseGroup {
    MExpr expr;
    GroupProps props;
  };
  std::vector<BaseGroup> groups;
  std::vector<int> roots;  ///< group id of each output root
};

namespace {

struct Winner {
  bool feasible = false;
  double cost = 1e300;
  int phys = -1;
  PhysProp delivered;
  BitVector256 rules;
};

struct Group {
  /// The group's alternatives in insertion order: a seed group's base expr
  /// first, then pointers into the search's expression arena. Neither ever
  /// moves an expr, so the search holds references across AddExprToGroup
  /// instead of deep-copying every MExpr it touches.
  std::vector<const MExpr*> exprs;
  /// A seed group's props, in the seed; null for a group the search made.
  const GroupProps* seed_props = nullptr;
  /// The props of a group the search made (empty for a seed group).
  GroupProps derived;
  bool explored = false;
  /// Best plan per requested property, keyed by PhysProp::HashValue(). A
  /// group sees a handful of keys, so a flat vector beats a hash map.
  std::vector<std::pair<uint64_t, Winner>> winners;

  const GroupProps& props() const {
    return seed_props != nullptr ? *seed_props : derived;
  }
};

/// Append-only storage for one search's groups and exprs. Elements never
/// move, so references survive appends (as in a deque, whose chunks hold a
/// single MExpr or two Groups), and a typical search fits in one block.
template <typename T, size_t kBlock>
class StableArena {
 public:
  size_t size() const { return size_; }
  T& operator[](size_t i) { return blocks_[i / kBlock][i % kBlock]; }
  const T& operator[](size_t i) const {
    return blocks_[i / kBlock][i % kBlock];
  }

  T& Append(T&& value) {
    if (size_ % kBlock == 0) blocks_.push_back(std::make_unique<T[]>(kBlock));
    T& slot = blocks_.back()[size_ % kBlock];
    slot = std::move(value);
    ++size_;
    return slot;
  }

 private:
  std::vector<std::unique_ptr<T[]>> blocks_;
  size_t size_ = 0;
};

// Bit indices of an expr's row in the `applied` table.
enum TransformIndex {
  kTxJoinCommute = 0,
  kTxJoinAssoc = 1,
  kTxEagerAggLeft = 2,
  kTxEagerAggRight = 3,
  kTxJoinThroughUnion = 4,
};

// ---------------------------------------------------------------------------
// The memo optimizer.
// ---------------------------------------------------------------------------

class MemoOptimizer {
 public:
  MemoOptimizer(const scope::Catalog& catalog, const OptimizerOptions& options,
                const RuleConfig& config)
      : catalog_(catalog),
        options_(options),
        config_(config),  // by value: the copy carries this compile's sink
        est_(catalog, StatsMode::kEstimated),
        tru_(catalog, StatsMode::kTrue),
        cost_model_(options.cost_params) {}

  /// Full compilation. Rule bits consulted while validating + normalizing
  /// are recorded into `norm_sink`, the rest into `post_sink` (either may
  /// be null); once validation passes `normalized_out` (if non-null)
  /// receives the normalized plan for cross-config reuse.
  Result<CompilationOutput> Run(const LogicalPlan& input,
                                BitVector256* norm_sink,
                                BitVector256* post_sink,
                                NormalizedPlan* normalized_out) {
    config_.TrackConsulted(norm_sink);
    QO_RETURN_IF_ERROR(config_.Validate());
    NormalizedPlan norm;
    {
      LogicalPlan plan = input;  // normalization mutates a copy
      Normalizer normalizer(&plan, config_);
      norm.fired = normalizer.Run();
      norm.seed = BuildSeed(plan);
    }
    if (normalized_out != nullptr) *normalized_out = norm;
    return RunPostNormalize(norm, post_sink);
  }

  /// Cost-based search starting from an already validated + normalized
  /// plan's seed, which it only reads.
  Result<CompilationOutput> RunPostNormalize(const NormalizedPlan& norm,
                                             BitVector256* post_sink) {
    config_.TrackConsulted(post_sink);
    const MemoSeed& seed = *norm.seed;
    // One up-front block for the candidate arena: typical searches stay
    // under this, so AddNode never reallocates.
    scratch_.nodes.reserve(128);
    payload_.reserve(128);
    // The seed's groups open the memo under their own ids; exprs the
    // exploration adds take the `applied` rows after them.
    applied_.reserve(seed.groups.size() + kExploredExprsReserve);
    applied_.assign(seed.groups.size(), 0);
    for (const MemoSeed::BaseGroup& base : seed.groups) {
      Group& group = groups_.Append(Group{});
      group.exprs.push_back(&base.expr);
      group.seed_props = &base.props;
    }

    // Optimize every output root.
    std::vector<int> root_phys;
    root_phys.reserve(seed.roots.size());
    BitVector256 signature = norm.fired;
    bool feasible = true;
    for (int g : seed.roots) {
      Winner w = OptimizeGroup(g, PhysProp::Any(), 0);
      if (!w.feasible) {
        feasible = false;
        break;
      }
      root_phys.push_back(w.phys);
      signature |= w.rules;
    }
    // Every expr this search's memo held, seed exprs included: one count
    // per search, so an `applied` row that re-admits or blocks an
    // alternative shows even where the winner does not move.
    QO_OBS_COUNT("optimizer.memo.exprs", applied_.size());
    if (!feasible) {
      return Status::CompileError(
          "no physical plan under this rule configuration");
    }
    // Required normalization rules fire on every compilation.
    signature.Set(rules::kNormalizeScript);
    signature.Set(rules::kBindReferences);
    signature.Set(rules::kDerivePlanProperties);
    signature.Set(rules::kValidateSchema);

    CompilationOutput out;
    out.signature = signature;
    out.est_cost = Compact(root_phys, &out.plan);
    return out;
  }

 private:
  // ----- Memo construction -------------------------------------------------

  /// Builds the seed of the normalized `plan`: one group per node reachable
  /// from the roots, in the order the search has always numbered them.
  std::shared_ptr<const MemoSeed> BuildSeed(const LogicalPlan& plan) {
    seed_plan_ = &plan;
    auto seed = std::make_shared<MemoSeed>();
    // Count the groups first: the seed is stored for as long as its memo
    // entry lives, so its vector is sized exactly. Reached nodes read
    // kReached until BuildGroup gives them a group.
    std::vector<int> node_to_group(plan.nodes.size(), kUnvisited);
    size_t reachable = 0;
    for (int r : plan.roots) reachable += MarkReachable(plan, r, &node_to_group);
    seed->groups.reserve(reachable);
    seed->roots.reserve(plan.roots.size());
    for (int r : plan.roots) {
      seed->roots.push_back(BuildGroup(plan, r, &node_to_group, seed.get()));
    }
    seed_plan_ = nullptr;  // the seed outlives `plan`
    return seed;
  }

  static size_t MarkReachable(const LogicalPlan& plan, int id,
                              std::vector<int>* node_to_group) {
    if ((*node_to_group)[id] != kUnvisited) return 0;
    (*node_to_group)[id] = kReached;
    size_t n = 1;
    for (int c : plan.node(id).children) {
      n += MarkReachable(plan, c, node_to_group);
    }
    return n;
  }

  /// Appends normalized node `node_id`'s group to `seed`, after its inputs'
  /// groups; `node_to_group` maps node ids to group ids once built.
  int BuildGroup(const LogicalPlan& plan, int node_id,
                 std::vector<int>* node_to_group, MemoSeed* seed) {
    if ((*node_to_group)[node_id] >= 0) return (*node_to_group)[node_id];
    const LogicalNode& n = plan.node(node_id);
    MExpr expr;
    expr.kind = n.kind;
    expr.table_path = n.table_path;
    expr.predicates = n.predicates;
    expr.projections = n.projections;
    expr.group_by = n.group_by;
    expr.left_key = n.left_key;
    expr.right_key = n.right_key;
    expr.true_fanout = n.true_fanout;
    expr.output_path = n.output_path;
    expr.children.reserve(n.children.size());
    for (int c : n.children) {
      expr.children.push_back(BuildGroup(plan, c, node_to_group, seed));
    }
    const int gid = static_cast<int>(seed->groups.size());
    GroupProps props = DeriveProps(expr, n.schema, [&](int g) -> const auto& {
      return seed->groups[g].props;
    });
    expr.id = gid;
    expr.fingerprint = expr.Fingerprint();
    seed->groups.push_back({std::move(expr), std::move(props)});
    (*node_to_group)[node_id] = gid;
    return gid;
  }

  /// Adds a group the exploration derived, holding `expr` alone, whose
  /// `applied` row starts at `applied`.
  int MakeGroup(MExpr&& expr, Schema schema, uint32_t applied) {
    Group group;
    group.derived =
        DeriveProps(expr, std::move(schema), [this](int g) -> const auto& {
          return groups_[g].props();
        });
    expr.fingerprint = expr.Fingerprint();
    group.exprs.push_back(&AppendExpr(std::move(expr), applied));
    groups_.Append(std::move(group));
    return static_cast<int>(groups_.size()) - 1;
  }

  const MExpr& AppendExpr(MExpr&& expr, uint32_t applied) {
    expr.id = static_cast<int>(applied_.size());
    applied_.push_back(applied);
    return exprs_.Append(std::move(expr));
  }

  /// `child_props(g)` returns group g's GroupProps.
  template <typename ChildProps>
  GroupProps DeriveProps(const MExpr& e, Schema schema,
                         const ChildProps& child_props) const {
    GroupProps props;
    props.schema = std::make_shared<const Schema>(std::move(schema));
    props.est = DeriveStats(e, est_, child_props);
    props.tru = DeriveStats(e, tru_, child_props);
    return props;
  }

  template <typename ChildProps>
  RelStats DeriveStats(const MExpr& e, const StatsDeriver& deriver,
                       const ChildProps& child_props) const {
    auto child = [&](size_t i) -> const RelStats& {
      const GroupProps& p = child_props(e.children[i]);
      return deriver.mode() == StatsMode::kTrue ? p.tru : p.est;
    };
    switch (e.kind) {
      case LogicalOpKind::kScan: {
        RelStats s = deriver.Scan(e.table_path, SchemaOfScan(e));
        if (!e.predicates.empty()) s = deriver.Filter(s, e.predicates);
        return s;
      }
      case LogicalOpKind::kFilter:
        return deriver.Filter(child(0), e.predicates);
      case LogicalOpKind::kProject:
        return deriver.Project(child(0), e.projections);
      case LogicalOpKind::kJoin:
        return deriver.Join(child(0), child(1), e.left_key, e.right_key,
                            e.true_fanout);
      case LogicalOpKind::kAggregate:
        if (e.partial_agg) {
          int parts = ChoosePartitions(child(0).rows * 64.0);
          return deriver.PartialAggregate(child(0), e.group_by, parts);
        }
        return deriver.Aggregate(child(0), e.group_by, e.projections);
      case LogicalOpKind::kUnionAll:
        return deriver.UnionAll(child(0), child(1));
      case LogicalOpKind::kOutput:
        return child(0);
    }
    return RelStats{};
  }

  // Scans derive stats from their table's full extracted schema (before
  // embedded predicates): that of the table's last scan in the normalized
  // plan, which still holds every original scan node (rewrites only
  // append). Only seed groups are scans; no exploration derives one.
  const Schema& SchemaOfScan(const MExpr& e) const {
    static const Schema kUnknown;
    const std::vector<LogicalNode>& nodes = seed_plan_->nodes;
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
      if (it->kind == LogicalOpKind::kScan && it->table_path == e.table_path) {
        return it->schema;
      }
    }
    return kUnknown;
  }

  // ----- Exploration --------------------------------------------------------

  void ExploreGroup(int gid) {
    if (groups_[gid].explored) return;
    groups_[gid].explored = true;
    for (size_t i = 0;
         i < groups_[gid].exprs.size() &&
         groups_[gid].exprs.size() <
             static_cast<size_t>(options_.max_exprs_per_group);
         ++i) {
      // Explore children first so their alternatives are visible to
      // pattern-matching rules here. Safe by reference: exprs live in the
      // arena, so recursive exploration can append without moving exprs[i].
      for (int c : groups_[gid].exprs[i]->children) ExploreGroup(c);
      TryJoinCommute(gid, i);
      TryJoinAssociativity(gid, i);
      TryEagerAggregation(gid, i, /*left_side=*/true);
      TryEagerAggregation(gid, i, /*left_side=*/false);
      TryJoinThroughUnion(gid, i);
    }
  }

  bool AlreadyApplied(int gid, size_t i, TransformIndex tx) const {
    return (applied_[groups_[gid].exprs[i]->id] & (1u << tx)) != 0;
  }
  void MarkApplied(int gid, size_t i, TransformIndex tx) {
    applied_[groups_[gid].exprs[i]->id] |= (1u << tx);
  }

  /// Adds `expr` to group `gid` unless the group is full or already holds
  /// it; a new expr's `applied` row starts at `applied`. A transform that
  /// copies an existing expr passes that expr's current row (plus its own
  /// bit), as copying the expr itself once did.
  void AddExprToGroup(int gid, MExpr&& expr, uint32_t applied) {
    Group& g = groups_[gid];
    if (g.exprs.size() >= static_cast<size_t>(options_.max_exprs_per_group)) {
      return;
    }
    expr.fingerprint = expr.Fingerprint();
    for (const MExpr* e : g.exprs) {
      if (e->fingerprint == expr.fingerprint) return;
    }
    g.exprs.push_back(&AppendExpr(std::move(expr), applied));
  }

  void TryJoinCommute(int gid, size_t i) {
    // Structural guards run before the rule-bit probe so the bit is only
    // consulted when the rule could actually fire (keeps the cross-config
    // memo footprint tight on join-free jobs).
    if (groups_[gid].exprs[i]->kind != LogicalOpKind::kJoin) return;
    if (!config_.IsEnabled(rules::kJoinCommute)) return;
    if (AlreadyApplied(gid, i, kTxJoinCommute)) return;
    MarkApplied(gid, i, kTxJoinCommute);
    const MExpr& e = *groups_[gid].exprs[i];
    MExpr swapped = e;
    std::swap(swapped.children[0], swapped.children[1]);
    std::swap(swapped.left_key, swapped.right_key);
    // Preserve ground-truth output rows: rows = L*f = R*f'.
    double l_rows = groups_[e.children[0]].props().tru.rows;
    double r_rows = std::max(1.0, groups_[e.children[1]].props().tru.rows);
    swapped.true_fanout = e.true_fanout * l_rows / r_rows;
    swapped.derivation.Set(rules::kJoinCommute);
    // The commute bit avoids ping-pong.
    AddExprToGroup(gid, std::move(swapped),
                   applied_[e.id] | (1u << kTxJoinCommute));
  }

  void TryJoinAssociativity(int gid, size_t i) {
    if (groups_[gid].exprs[i]->kind != LogicalOpKind::kJoin) return;
    if (!config_.IsEnabled(rules::kJoinAssociativity)) return;
    if (AlreadyApplied(gid, i, kTxJoinAssoc)) return;
    MarkApplied(gid, i, kTxJoinAssoc);
    const MExpr& e = *groups_[gid].exprs[i];  // (A join B) join C
    int left_gid = e.children[0];
    for (const MExpr* j2p : CollectPatternExprs(left_gid,
                                                LogicalOpKind::kJoin)) {
      const MExpr& j2 = *j2p;
      int a_gid = j2.children[0];
      int b_gid = j2.children[1];
      // The key joining to C must come from B.
      if (!groups_[b_gid].props().schema->HasColumn(e.left_key)) continue;
      if (!groups_[a_gid].props().schema->HasColumn(j2.left_key)) continue;
      // inner = B join C.
      MExpr inner;
      inner.kind = LogicalOpKind::kJoin;
      inner.children = {b_gid, e.children[1]};
      inner.left_key = e.left_key;
      inner.right_key = e.right_key;
      inner.true_fanout = e.true_fanout;
      inner.derivation = e.derivation | j2.derivation;
      inner.derivation.Set(rules::kJoinAssociativity);
      Schema inner_schema =
          ConcatSchemas(*groups_[b_gid].props().schema,
                        *groups_[e.children[1]].props().schema);
      int inner_gid = MakeGroup(std::move(inner), std::move(inner_schema), 0);
      // outer = A join inner.
      MExpr outer;
      outer.kind = LogicalOpKind::kJoin;
      outer.children = {a_gid, inner_gid};
      outer.left_key = j2.left_key;
      outer.right_key = j2.right_key;
      outer.true_fanout = j2.true_fanout * e.true_fanout;
      outer.derivation = e.derivation | j2.derivation;
      outer.derivation.Set(rules::kJoinAssociativity);
      AddExprToGroup(gid, std::move(outer), 1u << kTxJoinAssoc);
      break;  // one reassociation per expr keeps the space bounded
    }
  }

  void TryEagerAggregation(int gid, size_t i, bool left_side) {
    int rule = left_side ? rules::kEagerAggregationLeft
                         : rules::kEagerAggregationRight;
    TransformIndex tx = left_side ? kTxEagerAggLeft : kTxEagerAggRight;
    {
      const MExpr& probe = *groups_[gid].exprs[i];
      if (probe.kind != LogicalOpKind::kAggregate || probe.partial_agg) return;
    }
    if (!config_.IsEnabled(rule)) return;
    if (AlreadyApplied(gid, i, tx)) return;
    MarkApplied(gid, i, tx);
    const MExpr& e = *groups_[gid].exprs[i];
    int child_gid = e.children[0];
    for (const MExpr* joinp : CollectPatternExprs(child_gid,
                                                  LogicalOpKind::kJoin)) {
      const MExpr& join = *joinp;
      int side_gid = join.children[left_side ? 0 : 1];
      const Schema& side_schema = *groups_[side_gid].props().schema;
      const Symbol join_key = left_side ? join.left_key : join.right_key;
      // All grouping keys and aggregate inputs must come from this side.
      bool applicable = true;
      for (Symbol g : e.group_by) {
        if (!side_schema.HasColumn(g)) applicable = false;
      }
      for (const SelectItem& item : e.projections) {
        if (item.column != kSymStar && !side_schema.HasColumn(item.column)) {
          applicable = false;
        }
      }
      if (!applicable) continue;
      // Partial aggregate keyed by (group keys + join key).
      MExpr partial;
      partial.kind = LogicalOpKind::kAggregate;
      partial.partial_agg = true;
      partial.children = {side_gid};
      partial.group_by = e.group_by;
      bool key_in_groups = false;
      for (Symbol g : e.group_by) {
        if (g == join_key) key_in_groups = true;
      }
      if (!key_in_groups) partial.group_by.push_back(join_key);
      partial.projections = e.projections;
      partial.derivation = e.derivation | join.derivation;
      partial.derivation.Set(rule);
      Schema partial_schema;
      for (const auto& col : side_schema.columns) {
        bool keep = col.name == join_key;
        for (Symbol g : e.group_by) {
          if (g == col.name) keep = true;
        }
        for (const SelectItem& item : e.projections) {
          if (item.column == col.name) keep = true;
        }
        if (keep) partial_schema.columns.push_back(col);
      }
      int partial_gid =
          MakeGroup(std::move(partial), std::move(partial_schema), 0);
      // New join over the pre-aggregated side.
      MExpr new_join = join;
      new_join.children[left_side ? 0 : 1] = partial_gid;
      new_join.derivation.Set(rule);
      Schema join_schema = ConcatSchemas(
          *groups_[new_join.children[0]].props().schema,
          *groups_[new_join.children[1]].props().schema);
      int join_gid = MakeGroup(std::move(new_join), std::move(join_schema),
                               applied_[join.id]);
      // Final aggregate in the original group.
      MExpr final_agg = e;
      final_agg.children = {join_gid};
      final_agg.derivation.Set(rule);
      AddExprToGroup(gid, std::move(final_agg), applied_[e.id] | (1u << tx));
      break;
    }
  }

  void TryJoinThroughUnion(int gid, size_t i) {
    if (groups_[gid].exprs[i]->kind != LogicalOpKind::kJoin) return;
    if (!config_.IsEnabled(rules::kPushJoinThroughUnion)) return;
    if (AlreadyApplied(gid, i, kTxJoinThroughUnion)) return;
    MarkApplied(gid, i, kTxJoinThroughUnion);
    const MExpr& e = *groups_[gid].exprs[i];
    int left_gid = e.children[0];
    for (const MExpr* up : CollectPatternExprs(left_gid,
                                               LogicalOpKind::kUnionAll)) {
      const MExpr& u = *up;
      int join_gids[2];
      for (int side = 0; side < 2; ++side) {
        MExpr nj = e;
        nj.children = {u.children[side], e.children[1]};
        nj.derivation.Set(rules::kPushJoinThroughUnion);
        Schema s = ConcatSchemas(*groups_[u.children[side]].props().schema,
                                 *groups_[e.children[1]].props().schema);
        join_gids[side] = MakeGroup(std::move(nj), std::move(s),
                                    applied_[e.id]);
      }
      MExpr new_union;
      new_union.kind = LogicalOpKind::kUnionAll;
      new_union.children = {join_gids[0], join_gids[1]};
      new_union.derivation = e.derivation | u.derivation;
      new_union.derivation.Set(rules::kPushJoinThroughUnion);
      AddExprToGroup(gid, std::move(new_union), 1u << kTxJoinThroughUnion);
      break;
    }
  }

  static Schema ConcatSchemas(const Schema& l, const Schema& r) {
    Schema out = l;
    for (const auto& c : r.columns) {
      if (!out.HasColumn(c.name)) out.columns.push_back(c);
    }
    return out;
  }

  /// True for column-pruning projects (no renames, no computed columns) —
  /// pattern-matching rules may safely look through them.
  static bool IsPureProject(const MExpr& e) {
    if (e.kind != LogicalOpKind::kProject) return false;
    for (const SelectItem& item : e.projections) {
      if (item.agg != scope::AggFunc::kNone || item.alias != kSymEmpty ||
          item.column == kSymStar) {
        return false;
      }
    }
    return true;
  }

  /// Expressions of `kind` in group `gid`, looking through one level of
  /// pure pruning projects (which rules 46/47 insert below joins and
  /// aggregates and would otherwise hide the patterns). Returns pointers
  /// into the expr arena — stable across MakeGroup/AddExprToGroup, so
  /// callers match patterns without copying whole MExprs.
  std::vector<const MExpr*> CollectPatternExprs(int gid,
                                                LogicalOpKind kind) const {
    std::vector<const MExpr*> out;
    for (const MExpr* e : groups_[gid].exprs) {
      if (e->kind == kind) {
        out.push_back(e);
      } else if (IsPureProject(*e)) {
        for (const MExpr* b : groups_[e->children[0]].exprs) {
          if (b->kind == kind) out.push_back(b);
        }
      }
    }
    return out;
  }

  // ----- Implementation -----------------------------------------------------

  Winner* FindWinner(int gid, uint64_t key) {
    for (auto& [k, w] : groups_[gid].winners) {
      if (k == key) return &w;
    }
    return nullptr;
  }

  Winner OptimizeGroup(int gid, const PhysProp& required, int depth) {
    const uint64_t key = required.HashValue();
    if (const Winner* found = FindWinner(gid, key)) return *found;
    // Insert an infeasible placeholder to stop runaway recursion.
    std::vector<std::pair<uint64_t, Winner>>& winners = groups_[gid].winners;
    if (winners.empty()) winners.reserve(4);  // a group sees a few keys
    winners.emplace_back(key, Winner{});
    if (depth > 64) return Winner{};

    ExploreGroup(gid);

    Winner best;
    const size_t n_exprs = groups_[gid].exprs.size();
    for (size_t i = 0; i < n_exprs; ++i) {
      // By reference: the arenas keep groups and exprs pinned while
      // recursive OptimizeGroup calls grow groups_ underneath this loop.
      ImplementExpr(gid, *groups_[gid].exprs[i], required, depth, &best);
    }
    // Enforcer: satisfy the requirement by exchanging the Any-winner.
    if (required.kind != PhysProp::Kind::kAny) {
      Winner any = OptimizeGroup(gid, PhysProp::Any(), depth + 1);
      if (any.feasible) {
        AddEnforcer(any, required, &best);
      }
    }
    // Look the slot up again: recursion appended other keys' placeholders,
    // possibly reallocating this group's winners.
    *FindWinner(gid, key) = best;
    return best;
  }

  void ConsiderCandidate(const Winner& candidate, Winner* best) {
    if (!candidate.feasible) return;
    if (!best->feasible || candidate.cost < best->cost) *best = candidate;
  }

  /// Creates a candidate physical node for `expr`, annotating sizes and
  /// cost. The payload (paths, predicates, projections, keys) is not copied
  /// here: most candidates lose, so Compact copies it from `expr` for the
  /// nodes of the final plan only (and likewise an exchange's key).
  int MakePhysNode(PhysOpKind kind, const MExpr& expr,
                   std::vector<int> phys_children, double est_rows,
                   double true_rows, int partitions,
                   const std::shared_ptr<const Schema>& schema) {
    PhysicalNode node;
    node.kind = kind;
    node.children = std::move(phys_children);
    node.schema = schema;  // group-shared: refcount bump, no column copy
    node.est_rows = est_rows;
    const double row_width = schema->RowWidthBytes();
    node.est_bytes = est_rows * row_width;
    node.true_rows = true_rows;
    node.true_bytes = true_rows * row_width;
    node.partitions = partitions;
    std::array<double, 2> child_rows{}, child_bytes{};  // at most 2 inputs
    const size_t n = node.children.size();
    assert(n <= child_rows.size());
    for (size_t i = 0; i < n; ++i) {
      child_rows[i] = scratch_.node(node.children[i]).est_rows;
      child_bytes[i] = scratch_.node(node.children[i]).est_bytes;
    }
    node.local_cost =
        cost_model_.LocalCost(node, std::span(child_rows.data(), n),
                              std::span(child_bytes.data(), n));
    payload_.push_back({&expr, kSymEmpty});
    return scratch_.AddNode(std::move(node));
  }

  /// Wraps `input` with an exchange that delivers `prop`.
  /// Returns -1 when the needed exchange rule is disabled.
  int MakeExchange(int input_phys, const PhysProp& prop,
                   BitVector256* rules_used) {
    const PhysicalNode& child = scratch_.node(input_phys);
    PhysOpKind kind;
    int partitions;
    Symbol key = kSymEmpty;
    switch (prop.kind) {
      case PhysProp::Kind::kHash:
        if (!config_.IsEnabled(rules::kExchangeShuffleImpl)) return -1;
        kind = PhysOpKind::kExchangeShuffle;
        partitions = ChoosePartitions(child.est_bytes);
        key = prop.key;
        rules_used->Set(rules::kExchangeShuffleImpl);
        break;
      case PhysProp::Kind::kBroadcast:
        if (!config_.IsEnabled(rules::kExchangeBroadcastImpl)) return -1;
        kind = PhysOpKind::kExchangeBroadcast;
        partitions = std::max(1, prop.partitions_hint);
        rules_used->Set(rules::kExchangeBroadcastImpl);
        break;
      case PhysProp::Kind::kSingleton:
        if (!config_.IsEnabled(rules::kExchangeGatherImpl)) return -1;
        kind = PhysOpKind::kExchangeGather;
        partitions = 1;
        rules_used->Set(rules::kExchangeGatherImpl);
        break;
      default:
        return -1;
    }
    PhysicalNode node;
    node.kind = kind;
    node.children = {input_phys};
    node.schema = child.schema;
    node.est_rows = child.est_rows;
    node.est_bytes = child.est_bytes;
    node.true_rows = child.true_rows;
    node.true_bytes = child.true_bytes;
    node.partitions = partitions;
    node.local_cost =
        cost_model_.LocalCost(node, std::span(&child.est_rows, 1),
                              std::span(&child.est_bytes, 1));
    payload_.push_back({nullptr, key});
    return scratch_.AddNode(std::move(node));
  }

  void AddEnforcer(const Winner& any, const PhysProp& required, Winner* best) {
    if (required.SatisfiedBy(any.delivered)) {
      ConsiderCandidate(any, best);
      return;
    }
    Winner w = any;
    int ex = MakeExchange(any.phys, required, &w.rules);
    if (ex < 0) return;
    w.phys = ex;
    w.cost = any.cost + scratch_.node(ex).local_cost;
    w.delivered = required;
    if (required.kind == PhysProp::Kind::kHash) {
      w.delivered.kind = PhysProp::Kind::kHash;
    }
    ConsiderCandidate(w, best);
  }

  void ImplementExpr(int gid, const MExpr& expr, const PhysProp& required,
                     int depth, Winner* best) {
    const GroupProps& group = groups_[gid].props();
    const double est_rows = group.est.rows;
    const double tru_rows = group.tru.rows;
    const std::shared_ptr<const Schema>& schema = group.schema;
    switch (expr.kind) {
      case LogicalOpKind::kScan: {
        if (!config_.IsEnabled(rules::kScanImpl)) return;
        if (!required.SatisfiedBy(PhysProp::Random())) return;
        // Parallelism follows the bytes the scan *reads* (the full table),
        // not its possibly-filtered output.
        double table_bytes = est_rows * schema->RowWidthBytes();
        auto table_stats = catalog_.Lookup(expr.table_path);
        if (table_stats.ok()) {
          table_bytes = table_stats.value()->est_bytes();
        }
        Winner w;
        w.feasible = true;
        int parts = ChoosePartitions(table_bytes);
        w.phys = MakePhysNode(PhysOpKind::kScan, expr, {}, est_rows,
                              tru_rows, parts, schema);
        w.cost = scratch_.node(w.phys).local_cost;
        w.delivered = PhysProp::Random();
        w.rules = expr.derivation;
        w.rules.Set(rules::kScanImpl);
        if (!expr.predicates.empty()) w.rules.Set(rules::kFilterIntoScan);
        ConsiderCandidate(w, best);
        return;
      }
      case LogicalOpKind::kFilter:
      case LogicalOpKind::kProject: {
        int impl_rule = expr.kind == LogicalOpKind::kFilter
                            ? rules::kFilterImpl
                            : rules::kProjectImpl;
        if (!config_.IsEnabled(impl_rule)) return;
        // Pass the requirement through to the child (broadcast cannot pass).
        PhysProp child_req = required;
        if (required.kind == PhysProp::Kind::kBroadcast) {
          child_req = PhysProp::Any();
        }
        if (expr.kind == LogicalOpKind::kProject &&
            child_req.kind == PhysProp::Kind::kHash) {
          // Translate the key through the projection.
          const SelectItem* source = nullptr;
          for (const SelectItem& item : expr.projections) {
            if (item.output == child_req.key &&
                item.agg == scope::AggFunc::kNone) {
              source = &item;
            }
          }
          if (source == nullptr || source->column == kSymEmpty) {
            child_req = PhysProp::Any();  // fall back to enforcer above
          } else {
            child_req.key = source->column;
          }
        }
        Winner child = OptimizeGroup(expr.children[0], child_req, depth + 1);
        if (!child.feasible) return;
        if (!required.SatisfiedBy(child.delivered) &&
            required.kind != PhysProp::Kind::kAny) {
          return;  // enforcer path will handle it
        }
        PhysOpKind kind = expr.kind == LogicalOpKind::kFilter
                              ? PhysOpKind::kFilter
                              : PhysOpKind::kProject;
        Winner w;
        w.feasible = true;
        int parts = scratch_.node(child.phys).partitions;
        w.phys = MakePhysNode(kind, expr, {child.phys}, est_rows,
                              tru_rows, parts, schema);
        w.cost = child.cost + scratch_.node(w.phys).local_cost;
        w.delivered = child.delivered;
        w.rules = child.rules | expr.derivation;
        w.rules.Set(impl_rule);
        ConsiderCandidate(w, best);
        return;
      }
      case LogicalOpKind::kJoin: {
        ImplementJoin(gid, expr, required, depth, best);
        return;
      }
      case LogicalOpKind::kAggregate: {
        ImplementAggregate(gid, expr, required, depth, best);
        return;
      }
      case LogicalOpKind::kUnionAll: {
        if (!config_.IsEnabled(rules::kUnionAllImpl)) return;
        if (!required.SatisfiedBy(PhysProp::Random())) return;
        Winner l = OptimizeGroup(expr.children[0], PhysProp::Any(), depth + 1);
        Winner r = OptimizeGroup(expr.children[1], PhysProp::Any(), depth + 1);
        if (!l.feasible || !r.feasible) return;
        Winner w;
        w.feasible = true;
        int parts = scratch_.node(l.phys).partitions +
                    scratch_.node(r.phys).partitions;
        parts = std::min(parts, 256);
        w.phys = MakePhysNode(PhysOpKind::kUnionAll, expr,
                              {l.phys, r.phys}, est_rows, tru_rows, parts,
                              schema);
        w.cost = l.cost + r.cost + scratch_.node(w.phys).local_cost;
        w.delivered = PhysProp::Random();
        w.rules = l.rules | r.rules | expr.derivation;
        w.rules.Set(rules::kUnionAllImpl);
        ConsiderCandidate(w, best);
        return;
      }
      case LogicalOpKind::kOutput: {
        if (!config_.IsEnabled(rules::kOutputImpl)) return;
        Winner child = OptimizeGroup(expr.children[0], PhysProp::Any(),
                                     depth + 1);
        if (!child.feasible) return;
        Winner w;
        w.feasible = true;
        int parts = scratch_.node(child.phys).partitions;
        w.phys = MakePhysNode(PhysOpKind::kOutput, expr, {child.phys},
                              est_rows, tru_rows, parts, schema);
        w.cost = child.cost + scratch_.node(w.phys).local_cost;
        w.delivered = child.delivered;
        w.rules = child.rules | expr.derivation;
        w.rules.Set(rules::kOutputImpl);
        ConsiderCandidate(w, best);
        return;
      }
    }
  }

  void ImplementJoin(int gid, const MExpr& expr, const PhysProp& required,
                     int depth, Winner* best) {
    const GroupProps& group = groups_[gid].props();
    const std::shared_ptr<const Schema>& schema = group.schema;
    const double est_rows = group.est.rows;
    const double tru_rows = group.tru.rows;

    // Hash join: shuffle both sides on the join keys.
    auto shuffled_join = [&](PhysOpKind kind, int impl_rule) {
      if (!config_.IsEnabled(impl_rule)) return;
      Winner l = OptimizeGroup(expr.children[0],
                               PhysProp::Hash(expr.left_key), depth + 1);
      Winner r = OptimizeGroup(expr.children[1],
                               PhysProp::Hash(expr.right_key), depth + 1);
      if (!l.feasible || !r.feasible) return;
      PhysProp delivered = PhysProp::Hash(expr.left_key);
      if (!required.SatisfiedBy(delivered)) return;
      Winner w;
      w.feasible = true;
      int parts = std::max(scratch_.node(l.phys).partitions,
                           scratch_.node(r.phys).partitions);
      w.phys = MakePhysNode(kind, expr, {l.phys, r.phys}, est_rows,
                            tru_rows, parts, schema);
      w.cost = l.cost + r.cost + scratch_.node(w.phys).local_cost;
      w.delivered = delivered;
      w.rules = l.rules | r.rules | expr.derivation;
      w.rules.Set(impl_rule);
      ConsiderCandidate(w, best);
    };
    shuffled_join(PhysOpKind::kHashJoin, rules::kHashJoinImpl);
    shuffled_join(PhysOpKind::kMergeJoin, rules::kMergeJoinImpl);

    // Broadcast join: replicate the (small) right side.
    if (config_.IsEnabled(rules::kBroadcastJoinImpl)) {
      double threshold =
          config_.IsEnabled(rules::kBroadcastJoinAggressive)
              ? options_.broadcast_threshold_aggressive_bytes
              : options_.broadcast_threshold_bytes;
      const GroupProps& right = groups_[expr.children[1]].props();
      double right_bytes = right.est.rows * right.schema->RowWidthBytes();
      if (right_bytes <= threshold) {
        Winner l = OptimizeGroup(expr.children[0], PhysProp::Any(), depth + 1);
        if (l.feasible) {
          int consumers = scratch_.node(l.phys).partitions;
          Winner r = OptimizeGroup(expr.children[1],
                                   PhysProp::Broadcast(consumers), depth + 1);
          if (r.feasible && required.SatisfiedBy(l.delivered)) {
            Winner w;
            w.feasible = true;
            w.phys = MakePhysNode(PhysOpKind::kBroadcastJoin, expr,
                                  {l.phys, r.phys}, est_rows, tru_rows,
                                  consumers, schema);
            w.cost = l.cost + r.cost + scratch_.node(w.phys).local_cost;
            w.delivered = l.delivered;
            w.rules = l.rules | r.rules | expr.derivation;
            w.rules.Set(rules::kBroadcastJoinImpl);
            if (config_.IsEnabled(rules::kBroadcastJoinAggressive) &&
                right_bytes > options_.broadcast_threshold_bytes) {
              w.rules.Set(rules::kBroadcastJoinAggressive);
            }
            ConsiderCandidate(w, best);
          }
        }
      }
    }
  }

  void ImplementAggregate(int gid, const MExpr& expr, const PhysProp& required,
                          int depth, Winner* best) {
    const GroupProps& group = groups_[gid].props();
    const std::shared_ptr<const Schema>& schema = group.schema;
    const double est_rows = group.est.rows;
    const double tru_rows = group.tru.rows;

    if (expr.partial_agg) {
      // Local pre-aggregation: no data movement, preserves distribution.
      // Either aggregate implementation can realize the partial phase.
      bool hash_ok = config_.IsEnabled(rules::kHashAggImpl);
      bool stream_ok = config_.IsEnabled(rules::kStreamAggImpl);
      if (!hash_ok && !stream_ok) return;
      Winner child = OptimizeGroup(expr.children[0], PhysProp::Any(),
                                   depth + 1);
      if (!child.feasible) return;
      if (!required.SatisfiedBy(child.delivered)) return;
      Winner w;
      w.feasible = true;
      int parts = scratch_.node(child.phys).partitions;
      w.phys = MakePhysNode(PhysOpKind::kPartialHashAgg, expr,
                            {child.phys}, est_rows, tru_rows, parts, schema);
      w.cost = child.cost + scratch_.node(w.phys).local_cost;
      w.delivered = child.delivered;
      w.rules = child.rules | expr.derivation;
      w.rules.Set(hash_ok ? rules::kHashAggImpl : rules::kStreamAggImpl);
      ConsiderCandidate(w, best);
      return;
    }

    const bool global = expr.group_by.empty();
    const PhysProp delivered = global ? PhysProp::Singleton()
                                      : PhysProp::Hash(expr.group_by[0]);
    const PhysProp& agg_req = delivered;

    // Single-phase hash aggregation: shuffle raw rows to the group keys.
    if (config_.IsEnabled(rules::kHashAggImpl) &&
        required.SatisfiedBy(delivered)) {
      Winner child = OptimizeGroup(expr.children[0], agg_req, depth + 1);
      if (child.feasible) {
        Winner w;
        w.feasible = true;
        int parts = scratch_.node(child.phys).partitions;
        w.phys = MakePhysNode(PhysOpKind::kHashAgg, expr, {child.phys},
                              est_rows, tru_rows, parts, schema);
        w.cost = child.cost + scratch_.node(w.phys).local_cost;
        w.delivered = delivered;
        w.rules = child.rules | expr.derivation;
        w.rules.Set(rules::kHashAggImpl);
        ConsiderCandidate(w, best);
      }
    }

    // Stream (sort-based) aggregation.
    if (config_.IsEnabled(rules::kStreamAggImpl) && !global &&
        required.SatisfiedBy(delivered)) {
      Winner child = OptimizeGroup(expr.children[0], agg_req, depth + 1);
      if (child.feasible) {
        Winner w;
        w.feasible = true;
        int parts = scratch_.node(child.phys).partitions;
        w.phys = MakePhysNode(PhysOpKind::kStreamAgg, expr, {child.phys},
                              est_rows, tru_rows, parts, schema);
        w.cost = child.cost + scratch_.node(w.phys).local_cost;
        w.delivered = delivered;
        w.rules = child.rules | expr.derivation;
        w.rules.Set(rules::kStreamAggImpl);
        ConsiderCandidate(w, best);
      }
    }

    // Two-phase aggregation: local partial agg, then shuffle the (smaller)
    // partial results, then final agg.
    if (config_.IsEnabled(rules::kTwoPhaseAggregation) &&
        config_.IsEnabled(rules::kHashAggImpl) &&
        required.SatisfiedBy(delivered)) {
      Winner child = OptimizeGroup(expr.children[0], PhysProp::Any(),
                                   depth + 1);
      if (!child.feasible) return;
      int child_parts = scratch_.node(child.phys).partitions;
      const double partial_est_rows = est_.PartialAggregateRows(
          groups_[expr.children[0]].props().est, expr.group_by, child_parts);
      const double partial_tru_rows = tru_.PartialAggregateRows(
          groups_[expr.children[0]].props().tru, expr.group_by, child_parts);
      BitVector256 rules_used = child.rules | expr.derivation;
      rules_used.Set(rules::kTwoPhaseAggregation);
      rules_used.Set(rules::kHashAggImpl);
      int partial = MakePhysNode(PhysOpKind::kPartialHashAgg, expr,
                                 {child.phys}, partial_est_rows,
                                 partial_tru_rows, child_parts, schema);
      int exchange = MakeExchange(partial, delivered, &rules_used);
      if (exchange < 0) return;
      int final_parts = scratch_.node(exchange).partitions;
      int final_agg = MakePhysNode(PhysOpKind::kHashAgg, expr,
                                   {exchange}, est_rows, tru_rows, final_parts,
                                   schema);
      Winner w;
      w.feasible = true;
      w.phys = final_agg;
      w.cost = child.cost + scratch_.node(partial).local_cost +
               scratch_.node(exchange).local_cost +
               scratch_.node(final_agg).local_cost;
      w.delivered = delivered;
      w.rules = rules_used;
      ConsiderCandidate(w, best);
    }
  }

  // ----- Winner extraction --------------------------------------------------

  /// Copies the reachable subgraph into `out`, returning the total estimated
  /// cost of the final plan.
  double Compact(const std::vector<int>& root_phys, PhysicalPlan* out) {
    // Scratch id -> plan id; kUnvisited / kReached until copied.
    std::vector<int> remap(scratch_.size(), kUnvisited);
    size_t reachable = 0;
    for (int r : root_phys) reachable += MarkReachable(r, &remap);
    out->nodes.reserve(reachable);
    out->roots.reserve(root_phys.size());
    double total = 0.0;
    for (int r : root_phys) {
      out->roots.push_back(CopyReachable(r, &remap, out, &total));
    }
    return total;
  }

  static constexpr int kUnvisited = -1;
  static constexpr int kReached = -2;

  size_t MarkReachable(int id, std::vector<int>* remap) const {
    if ((*remap)[id] != kUnvisited) return 0;
    (*remap)[id] = kReached;
    size_t n = 1;
    for (int c : scratch_.node(id).children) n += MarkReachable(c, remap);
    return n;
  }

  /// Moves scratch node `id` and its inputs into `out` (children first),
  /// filling in the payload from the MExpr each implements.
  int CopyReachable(int id, std::vector<int>* remap, PhysicalPlan* out,
                    double* total) {
    if ((*remap)[id] >= 0) return (*remap)[id];
    // Steal, don't copy: remap guarantees one visit per scratch node, and
    // the scratch arena dies with this MemoOptimizer.
    PhysicalNode node = std::move(scratch_.node(id));
    for (int& c : node.children) c = CopyReachable(c, remap, out, total);
    const Payload& payload = payload_[id];
    if (const MExpr* src = payload.expr) {
      node.table_path = src->table_path;
      node.predicates = src->predicates;
      node.projections = src->projections;
      node.group_by = src->group_by;
      node.left_key = src->left_key;
      node.right_key = src->right_key;
      node.true_fanout = src->true_fanout;
      node.output_path = src->output_path;
    } else {
      node.exchange_key = payload.exchange_key;
    }
    *total += node.local_cost;
    const int nid = out->AddNode(std::move(node));
    (*remap)[id] = nid;
    return nid;
  }

  const scope::Catalog& catalog_;
  OptimizerOptions options_;
  RuleConfig config_;
  StatsDeriver est_;
  StatsDeriver tru_;
  CostModel cost_model_;
  /// Arenas: MakeGroup during exploration never moves existing groups or
  /// exprs, so Group/Schema/MExpr references held across recursive
  /// OptimizeGroup calls stay valid (a growing vector would invalidate them
  /// mid-implementation). A seed group's expr and props live in the seed;
  /// the arenas hold only what this search derives.
  StableArena<Group, 16> groups_;
  StableArena<MExpr, 16> exprs_;
  /// Transformation-rule bitmask already tried, per expr id. Per search,
  /// so restarts share the seed's exprs read-only.
  std::vector<uint32_t> applied_;
  /// Room the `applied` table keeps for explored exprs beyond the seed's,
  /// so a typical search never regrows it.
  static constexpr size_t kExploredExprsReserve = 16;
  /// Every candidate the search costs; Compact moves the winners out.
  PhysicalPlan scratch_;
  /// Where Compact finds each scratch node's payload: the MExpr it
  /// implements, or, for an exchange, its key (kSymEmpty when it has none).
  struct Payload {
    const MExpr* expr;
    Symbol exchange_key;
  };
  std::vector<Payload> payload_;
  /// The normalized plan BuildSeed is reading (null otherwise).
  const LogicalPlan* seed_plan_ = nullptr;
};

}  // namespace

Optimizer::Optimizer(const scope::Catalog& catalog, OptimizerOptions options)
    : catalog_(catalog), options_(options) {}

Result<CompilationOutput> Optimizer::Optimize(const scope::LogicalPlan& plan,
                                              const RuleConfig& config) const {
  return OptimizeTracked(plan, config, nullptr, nullptr, nullptr);
}

Result<CompilationOutput> Optimizer::OptimizeTracked(
    const scope::LogicalPlan& plan, const RuleConfig& config,
    BitVector256* norm_consulted, BitVector256* post_consulted,
    NormalizedPlan* normalized_out) const {
  MemoOptimizer memo(catalog_, options_, config);
  return memo.Run(plan, norm_consulted, post_consulted, normalized_out);
}

Result<CompilationOutput> Optimizer::OptimizeFromNormalized(
    const NormalizedPlan& normalized, const RuleConfig& config,
    BitVector256* post_consulted) const {
  MemoOptimizer memo(catalog_, options_, config);
  return memo.RunPostNormalize(normalized, post_consulted);
}

}  // namespace qo::opt
