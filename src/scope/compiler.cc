#include "scope/compiler.h"

#include <unordered_map>

#include "scope/parser.h"

namespace qo::scope {

namespace {

/// The symbol of a name a statement references. A name that was never
/// interned is in no schema, so a probe that misses (kNoSymbol) fails the
/// schema lookup like any unknown column, and rejected scripts never grow
/// the symbol table.
Symbol Ref(const std::string& name) {
  return SymbolTable::Global().Find(name);
}

class Compiler {
 public:
  Compiler(const Script& script, const Catalog& catalog)
      : script_(script), catalog_(catalog) {}

  Result<LogicalPlan> Compile() {
    for (const Statement& stmt : script_.statements) {
      Status s;
      switch (stmt.kind) {
        case StatementKind::kExtract:
          s = CompileExtract(stmt);
          break;
        case StatementKind::kSelect:
          s = CompileSelect(stmt);
          break;
        case StatementKind::kUnion:
          s = CompileUnion(stmt);
          break;
        case StatementKind::kOutput:
          s = CompileOutput(stmt);
          break;
      }
      if (!s.ok()) return s;
    }
    if (plan_.roots.empty()) {
      return Status::CompileError("script has no OUTPUT statement");
    }
    return std::move(plan_);
  }

 private:
  Status Bind(const std::string& name, int node_id, int line) {
    if (bindings_.count(name) > 0) {
      return Status::CompileError("rowset '" + name + "' redefined at line " +
                                  std::to_string(line));
    }
    bindings_[name] = node_id;
    return Status::OK();
  }

  Result<int> Resolve(const std::string& name, int line) const {
    auto it = bindings_.find(name);
    if (it == bindings_.end()) {
      return Status::CompileError("unknown rowset '" + name + "' at line " +
                                  std::to_string(line));
    }
    return it->second;
  }

  Status CompileExtract(const Statement& stmt) {
    const ExtractStatement& ex = stmt.extract;
    if (!catalog_.Has(ex.input_path)) {
      return Status::CompileError("input not in catalog: " + ex.input_path);
    }
    LogicalNode node;
    node.kind = LogicalOpKind::kScan;
    node.table_path = Sym(ex.input_path);
    node.schema.columns.reserve(ex.columns.size());
    for (const Column& c : ex.columns) {
      node.schema.columns.push_back(BoundColumn{Sym(c.name), c.type});
    }
    int id = plan_.AddNode(std::move(node));
    return Bind(ex.target, id, stmt.line);
  }

  Status CompileUnion(const Statement& stmt) {
    const UnionStatement& u = stmt.union_stmt;
    QO_ASSIGN_OR_RETURN(int left, Resolve(u.left, stmt.line));
    QO_ASSIGN_OR_RETURN(int right, Resolve(u.right, stmt.line));
    const Schema& ls = plan_.node(left).schema;
    const Schema& rs = plan_.node(right).schema;
    if (ls.size() != rs.size()) {
      return Status::CompileError("UNION ALL schema arity mismatch at line " +
                                  std::to_string(stmt.line));
    }
    LogicalNode node;
    node.kind = LogicalOpKind::kUnionAll;
    node.children = {left, right};
    node.schema = ls;
    int id = plan_.AddNode(std::move(node));
    return Bind(u.target, id, stmt.line);
  }

  Status CompileOutput(const Statement& stmt) {
    const OutputStatement& out = stmt.output;
    QO_ASSIGN_OR_RETURN(int src, Resolve(out.source, stmt.line));
    LogicalNode node;
    node.kind = LogicalOpKind::kOutput;
    node.children = {src};
    node.schema = plan_.node(src).schema;
    node.output_path = Sym(out.output_path);
    plan_.roots.push_back(plan_.AddNode(std::move(node)));
    return Status::OK();
  }

  Status CompileSelect(const Statement& stmt) {
    const SelectStatement& sel = stmt.select;
    QO_ASSIGN_OR_RETURN(int current, Resolve(sel.from, stmt.line));

    // Joins (left-deep in script order).
    for (const JoinClause& jc : sel.joins) {
      QO_ASSIGN_OR_RETURN(int right, Resolve(jc.rowset, stmt.line));
      const Schema& ls = plan_.node(current).schema;
      const Schema& rs = plan_.node(right).schema;
      const Symbol left_key = Ref(jc.left_column);
      const Symbol right_key = Ref(jc.right_column);
      if (!ls.HasColumn(left_key)) {
        return Status::CompileError("join key '" + jc.left_column +
                                    "' not found on left side at line " +
                                    std::to_string(stmt.line));
      }
      if (!rs.HasColumn(right_key)) {
        return Status::CompileError("join key '" + jc.right_column +
                                    "' not found on right side at line " +
                                    std::to_string(stmt.line));
      }
      LogicalNode join;
      join.kind = LogicalOpKind::kJoin;
      join.children = {current, right};
      join.left_key = left_key;
      join.right_key = right_key;
      join.true_fanout = jc.true_fanout;
      join.schema = ls;
      for (const BoundColumn& c : rs.columns) {
        if (!join.schema.HasColumn(c.name)) join.schema.columns.push_back(c);
      }
      current = plan_.AddNode(std::move(join));
    }

    // WHERE.
    if (!sel.where.empty()) {
      const Schema& schema = plan_.node(current).schema;
      LogicalNode filter;
      filter.predicates.reserve(sel.where.size());
      for (const Predicate& p : sel.where) {
        const Symbol column = Ref(p.column);
        if (!schema.HasColumn(column)) {
          return Status::CompileError("predicate column '" + p.column +
                                      "' not found at line " +
                                      std::to_string(stmt.line));
        }
        filter.predicates.push_back(
            BoundPredicate{column, p.op, p.literal, p.true_selectivity});
      }
      filter.kind = LogicalOpKind::kFilter;
      filter.children = {current};
      filter.schema = plan_.node(current).schema;
      current = plan_.AddNode(std::move(filter));
    }

    // Aggregation / projection.
    bool has_agg = !sel.group_by.empty();
    for (const SelectItem& item : sel.items) {
      if (item.agg != AggFunc::kNone) has_agg = true;
    }
    if (has_agg) {
      QO_ASSIGN_OR_RETURN(int agg_id, BuildAggregate(sel, current, stmt.line));
      current = agg_id;
    } else if (!(sel.items.size() == 1 && sel.items[0].column == "*")) {
      QO_ASSIGN_OR_RETURN(int proj_id, BuildProject(sel, current, stmt.line));
      current = proj_id;
    }
    return Bind(sel.target, current, stmt.line);
  }

  Result<int> BuildProject(const SelectStatement& sel, int child, int line) {
    const Schema& in = plan_.node(child).schema;
    LogicalNode proj;
    proj.kind = LogicalOpKind::kProject;
    proj.children = {child};
    for (const SelectItem& item : sel.items) {
      if (item.column == "*") {
        for (const BoundColumn& c : in.columns) {
          proj.schema.columns.push_back(c);
          proj.projections.push_back(BoundSelectItem::PassThrough(c.name));
        }
        continue;
      }
      const Symbol column = Ref(item.column);
      int idx = in.FindColumn(column);
      if (idx < 0) {
        return Status::CompileError("projected column '" + item.column +
                                    "' not found at line " +
                                    std::to_string(line));
      }
      BoundSelectItem bound = BoundSelectItem::PassThrough(column);
      if (!item.alias.empty()) bound.alias = bound.output = Sym(item.alias);
      proj.schema.columns.push_back(
          BoundColumn{bound.output, in.columns[static_cast<size_t>(idx)].type});
      proj.projections.push_back(bound);
    }
    return plan_.AddNode(std::move(proj));
  }

  Result<int> BuildAggregate(const SelectStatement& sel, int child, int line) {
    const Schema& in = plan_.node(child).schema;
    LogicalNode agg;
    agg.kind = LogicalOpKind::kAggregate;
    agg.children = {child};
    agg.group_by.reserve(sel.group_by.size());
    for (const std::string& g : sel.group_by) {
      const Symbol key = Ref(g);
      int idx = in.FindColumn(key);
      if (idx < 0) {
        return Status::CompileError("GROUP BY column '" + g +
                                    "' not found at line " +
                                    std::to_string(line));
      }
      agg.schema.columns.push_back(in.columns[static_cast<size_t>(idx)]);
      agg.group_by.push_back(key);
    }
    for (const SelectItem& item : sel.items) {
      if (item.agg == AggFunc::kNone) {
        // Plain columns in an aggregate select must be group-by keys.
        if (item.column == "*") {
          return Status::CompileError(
              "'*' not allowed with GROUP BY at line " + std::to_string(line));
        }
        bool is_key = false;
        for (const std::string& g : sel.group_by) {
          if (g == item.column) is_key = true;
        }
        if (!is_key) {
          return Status::CompileError("column '" + item.column +
                                      "' must appear in GROUP BY at line " +
                                      std::to_string(line));
        }
        continue;  // already in schema via group_by
      }
      BoundSelectItem bound;
      bound.agg = item.agg;
      bound.column = kSymStar;
      if (item.column != "*") {
        bound.column = Ref(item.column);
        if (!in.HasColumn(bound.column)) {
          return Status::CompileError("aggregated column '" + item.column +
                                      "' not found at line " +
                                      std::to_string(line));
        }
      }
      bound.output = Sym(item.OutputName());  // the alias, if there is one
      if (!item.alias.empty()) bound.alias = bound.output;
      ColumnType out_type = ColumnType::kDouble;
      if (item.agg == AggFunc::kCount) out_type = ColumnType::kLong;
      agg.schema.columns.push_back(BoundColumn{bound.output, out_type});
      agg.projections.push_back(bound);
    }
    if (agg.projections.empty() && agg.group_by.empty()) {
      return Status::CompileError("aggregate with no keys or functions");
    }
    return plan_.AddNode(std::move(agg));
  }

  const Script& script_;
  const Catalog& catalog_;
  LogicalPlan plan_;
  std::unordered_map<std::string, int> bindings_;
};

}  // namespace

Result<LogicalPlan> CompileScript(const Script& script,
                                  const Catalog& catalog) {
  Compiler compiler(script, catalog);
  return compiler.Compile();
}

Result<LogicalPlan> CompileSource(const std::string& source,
                                  const Catalog& catalog) {
  auto script = ParseScript(source);
  if (!script.ok()) return script.status();
  return CompileScript(script.value(), catalog);
}

}  // namespace qo::scope
