#include "workload/template_gen.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace qo::workload {

namespace {

using scope::Column;
using scope::ColumnType;
using scope::CompareOp;
using scope::SelectItem;

void AppendDouble(std::string* s, double v) {
  char buf[64];
  int n = std::snprintf(buf, sizeof(buf), "%.6g", v);
  s->append(buf, static_cast<size_t>(n));
}

std::string FormatDouble(double v) {
  std::string s;
  AppendDouble(&s, v);
  return s;
}

void AppendInt(std::string* s, long long v) {
  char buf[24];
  auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  s->append(buf, end);
}

/// Interns `table`'s path, then its columns in the iteration order of a
/// string-keyed hash map filled in column order, which is the order
/// instantiation has always interned them in. Symbol ids feed every catalog
/// fingerprint and so the compile cache's shard choice: another order would
/// move each run's cache hits and evictions.
ResolvedTable Resolve(const TableSpec& table) {
  ResolvedTable r;
  r.path = Sym(table.path);
  std::unordered_map<std::string, size_t> order;
  for (size_t c = 0; c < table.columns.size(); ++c) {
    order[table.columns[c].name] = c;
  }
  r.columns.resize(table.columns.size());
  for (const auto& [name, c] : order) r.columns[c] = Sym(name);
  r.base_ndv.reserve(table.columns.size());
  for (const Column& col : table.columns) {
    r.avg_row_bytes += scope::ColumnTypeWidth(col.type);
    auto it = table.base_ndv.find(col.name);
    r.base_ndv.push_back(it != table.base_ndv.end() ? it->second
                                                    : table.base_rows / 100.0);
  }
  return r;
}

}  // namespace

JobTemplate TemplateGenerator::GenerateOne(int id) {
  JobTemplate t;
  t.id = id;
  t.name = "Template_" + std::to_string(id);

  Rng rng = rng_.Fork(static_cast<uint64_t>(id) + 1);
  const std::string prefix = "store://t" + std::to_string(id) + "/";

  // About a third of SCOPE jobs are plain copy/extract pipelines whose plan
  // no rule flip can change (empty span; the paper reports ~66% of jobs
  // have a non-empty span).
  const bool trivial = rng.Bernoulli(0.30);

  // --- Fact table: 6-16 columns, 1e6..5e9 rows (lognormal). ---
  const int n_dims = trivial ? 0 : static_cast<int>(rng.UniformInt(0, 3));
  const bool with_union = !trivial && rng.Bernoulli(0.15);
  const bool with_agg = !trivial && rng.Bernoulli(0.70);
  const bool extra_output = !trivial && rng.Bernoulli(0.25);

  TableSpec fact;
  fact.path = prefix + "fact";
  fact.base_rows = std::exp(rng.Normal(std::log(4.0e7), 1.4));
  fact.base_rows = std::clamp(fact.base_rows, 1.0e6, 5.0e9);
  fact.est_bias = rng.LogNormal(0.0, 0.6);
  const int n_cols = static_cast<int>(rng.UniformInt(6, 16));
  // Key columns for joins first, then attributes.
  std::vector<std::string> key_cols, attr_cols, numeric_cols, groupable_cols;
  for (int j = 0; j < n_dims; ++j) {
    std::string name = "f_key" + std::to_string(j);
    fact.columns.push_back({name, ColumnType::kLong});
    key_cols.push_back(name);
  }
  for (int c = 0; c < n_cols; ++c) {
    std::string name = "f_col" + std::to_string(c);
    double pick = rng.Uniform();
    if (pick < 0.35) {
      fact.columns.push_back({name, ColumnType::kString});
      fact.base_ndv[name] = rng.Uniform(10.0, 5.0e4);
      attr_cols.push_back(name);
      groupable_cols.push_back(name);
    } else if (pick < 0.7) {
      fact.columns.push_back({name, ColumnType::kDouble});
      fact.base_ndv[name] = fact.base_rows / rng.Uniform(2.0, 50.0);
      numeric_cols.push_back(name);
      attr_cols.push_back(name);
    } else {
      fact.columns.push_back({name, ColumnType::kInt});
      fact.base_ndv[name] = rng.Uniform(100.0, 1.0e6);
      attr_cols.push_back(name);
      groupable_cols.push_back(name);
    }
  }
  if (numeric_cols.empty()) {
    fact.columns.push_back({"f_val", ColumnType::kDouble});
    fact.base_ndv["f_val"] = fact.base_rows / 10.0;
    numeric_cols.push_back("f_val");
  }
  if (groupable_cols.empty()) {
    fact.columns.push_back({"f_grp", ColumnType::kString});
    fact.base_ndv["f_grp"] = rng.Uniform(10.0, 2.0e4);
    groupable_cols.push_back("f_grp");
  }
  t.tables.push_back(fact);

  // --- Dimension tables. ---
  for (int j = 0; j < n_dims; ++j) {
    TableSpec dim;
    dim.path = prefix + "dim" + std::to_string(j);
    dim.base_rows = fact.base_rows * rng.Uniform(0.0005, 0.08);
    dim.base_rows = std::clamp(dim.base_rows, 1000.0, 2.0e8);
    dim.est_bias = rng.LogNormal(0.0, 0.5);
    std::string pk = "d" + std::to_string(j) + "_pk";
    dim.columns.push_back({pk, ColumnType::kLong});
    dim.base_ndv[pk] = dim.base_rows;  // unique primary key
    const int extra = static_cast<int>(rng.UniformInt(2, 6));
    for (int c = 0; c < extra; ++c) {
      std::string name = "d";
      name += std::to_string(j);
      name += "_a";
      name += std::to_string(c);
      dim.columns.push_back({name, c % 2 == 0 ? ColumnType::kString
                                              : ColumnType::kDouble});
      dim.base_ndv[name] = rng.Uniform(5.0, dim.base_rows);
    }
    // The fact FK references an *active subset* of the dimension — a small
    // share of customers/products account for most fact rows. This is what
    // makes eager (pre-join) aggregation profitable on some templates.
    t.tables[0].base_ndv[key_cols[static_cast<size_t>(j)]] =
        std::max(10.0, dim.base_rows * rng.Uniform(0.01, 1.0));
    t.tables.push_back(std::move(dim));
  }

  // --- Optional UNION ALL: a sibling fact extract with identical schema. ---
  std::string chain = "fact_rs";
  if (with_union) {
    TableSpec fact_b = t.tables[0];
    fact_b.path = prefix + "fact_b";
    fact_b.base_rows *= rng.Uniform(0.2, 1.0);
    fact_b.est_bias = rng.LogNormal(0.0, 0.6);
    t.tables.push_back(std::move(fact_b));
    UnionSpec u;
    u.target = "unioned";
    u.left = "fact_rs";
    u.right = "fact_b_rs";
    t.unions.push_back(std::move(u));
    chain = "unioned";
  }

  // --- Filter statement over the chain start. ---
  const int n_filters = trivial ? 0 : static_cast<int>(rng.UniformInt(0, 3));
  {
    SelectSpec s;
    s.target = "filtered";
    s.from = chain;
    SelectItem star;
    star.column = "*";
    s.items.push_back(star);
    for (int f = 0; f < n_filters && !attr_cols.empty(); ++f) {
      FilterSpec fs;
      fs.column = attr_cols[rng.UniformInt(attr_cols.size())];
      if (rng.Bernoulli(0.5)) {
        fs.op = CompareOp::kEq;
        fs.literal = "\"v" + std::to_string(rng.UniformInt(100)) + "\"";
        fs.base_selectivity = std::exp(rng.Uniform(std::log(0.01),
                                                   std::log(0.7)));
      } else {
        fs.op = rng.Bernoulli(0.5) ? CompareOp::kGt : CompareOp::kLe;
        fs.literal = FormatDouble(rng.Uniform(0.0, 1000.0));
        fs.base_selectivity = rng.Uniform(0.15, 0.85);
      }
      s.filters.push_back(std::move(fs));
    }
    if (!s.filters.empty() || true) t.selects.push_back(std::move(s));
    chain = "filtered";
  }

  // --- Join chain over the dimensions. ---
  if (n_dims > 0) {
    SelectSpec s;
    s.target = "joined";
    s.from = chain;
    SelectItem star;
    star.column = "*";
    s.items.push_back(star);
    for (int j = 0; j < n_dims; ++j) {
      JoinSpec js;
      js.rowset = "dim" + std::to_string(j) + "_rs";
      js.left_column = key_cols[static_cast<size_t>(j)];
      js.right_column = "d" + std::to_string(j) + "_pk";
      // FK joins with occasional row-amplifying fanouts (e.g. joining
      // against slowly-changing dimensions or line-item expansions).
      js.base_fanout = rng.LogNormal(0.25, 0.55);
      s.joins.push_back(std::move(js));
    }
    t.selects.push_back(std::move(s));
    chain = "joined";
  }

  // --- Aggregation. ---
  if (with_agg) {
    SelectSpec s;
    s.target = "aggregated";
    s.from = chain;
    const int n_keys = static_cast<int>(rng.UniformInt(1, 2));
    for (int k = 0; k < n_keys && k < static_cast<int>(groupable_cols.size());
         ++k) {
      std::string col = groupable_cols[rng.UniformInt(groupable_cols.size())];
      bool dup = false;
      for (const auto& g : s.group_by) dup = dup || g == col;
      if (dup) continue;
      s.group_by.push_back(col);
      SelectItem key_item;
      key_item.column = col;
      s.items.push_back(std::move(key_item));
    }
    if (s.group_by.empty()) {
      s.group_by.push_back(groupable_cols[0]);
      SelectItem key_item;
      key_item.column = groupable_cols[0];
      s.items.push_back(std::move(key_item));
    }
    SelectItem sum_item;
    sum_item.agg = scope::AggFunc::kSum;
    sum_item.column = numeric_cols[rng.UniformInt(numeric_cols.size())];
    sum_item.alias = "total";
    s.items.push_back(std::move(sum_item));
    if (rng.Bernoulli(0.5)) {
      SelectItem cnt;
      cnt.agg = scope::AggFunc::kCount;
      cnt.column = "*";
      cnt.alias = "cnt";
      s.items.push_back(std::move(cnt));
    }
    t.selects.push_back(std::move(s));
    chain = "aggregated";
  }

  t.outputs.push_back(chain);
  if (extra_output && t.selects.size() > 1) {
    // Also materialize the pre-aggregation rowset (multi-output DAG).
    t.outputs.push_back(t.selects[t.selects.size() - 2].target);
  }
  return t;
}

std::vector<JobTemplate> TemplateGenerator::Generate(int count, int first_id) {
  std::vector<JobTemplate> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(GenerateOne(first_id + i));
  return out;
}

ResolvedTables& ResolvedTables::operator=(const ResolvedTables&) {
  delete resolved_.exchange(nullptr, std::memory_order_acq_rel);
  return *this;
}

ResolvedTables::~ResolvedTables() {
  delete resolved_.load(std::memory_order_acquire);
}

const std::vector<ResolvedTable>& ResolvedTables::Get(
    const std::vector<TableSpec>& tables) const {
  const std::vector<ResolvedTable>* current =
      resolved_.load(std::memory_order_acquire);
  if (current != nullptr) return *current;
  auto* fresh = new std::vector<ResolvedTable>();
  fresh->reserve(tables.size());
  for (const TableSpec& table : tables) fresh->push_back(Resolve(table));
  // A thread that loses the race drops its copy; interning is idempotent,
  // so both resolved the same ids.
  if (!resolved_.compare_exchange_strong(current, fresh,
                                         std::memory_order_acq_rel)) {
    delete fresh;
    return *current;
  }
  return *fresh;
}

std::string RenderScript(const JobTemplate& tmpl, std::span<const double> sels,
                         std::span<const double> fans) {
  std::string s;
  // EXTRACT statements: rowset name = <basename>_rs.
  for (const TableSpec& table : tmpl.tables) {
    const size_t slash = table.path.find_last_of('/') + 1;
    s.append(table.path, slash);
    s += "_rs = EXTRACT ";
    for (size_t i = 0; i < table.columns.size(); ++i) {
      if (i > 0) s += ", ";
      s += table.columns[i].name;
      s += ':';
      s += scope::ColumnTypeToString(table.columns[i].type);
    }
    s += " FROM \"";
    s += table.path;
    s += "\";\n";
  }
  for (const UnionSpec& u : tmpl.unions) {
    s += u.target;
    s += " = ";
    s += u.left;
    s += " UNION ALL ";
    s += u.right;
    s += ";\n";
  }
  size_t next_filter = 0, next_join = 0;
  for (const SelectSpec& sel : tmpl.selects) {
    s += sel.target;
    s += " = SELECT ";
    for (size_t i = 0; i < sel.items.size(); ++i) {
      if (i > 0) s += ", ";
      s += sel.items[i].ToString();
    }
    s += " FROM ";
    s += sel.from;
    for (const JoinSpec& j : sel.joins) {
      s += "\n  JOIN ";
      s += j.rowset;
      s += " ON ";
      s += j.left_column;
      s += " == ";
      s += j.right_column;
      s += " @ ";
      AppendDouble(&s, fans[next_join++]);
    }
    for (size_t fi = 0; fi < sel.filters.size(); ++fi) {
      const FilterSpec& f = sel.filters[fi];
      s += fi == 0 ? "\n  WHERE " : " AND ";
      s += f.column;
      s += ' ';
      s += scope::CompareOpToString(f.op);
      s += ' ';
      s += f.literal;
      s += " @ ";
      AppendDouble(&s, sels[next_filter++]);
    }
    for (size_t gi = 0; gi < sel.group_by.size(); ++gi) {
      s += gi == 0 ? "\n  GROUP BY " : ", ";
      s += sel.group_by[gi];
    }
    s += ";\n";
  }
  for (size_t oi = 0; oi < tmpl.outputs.size(); ++oi) {
    s += "OUTPUT ";
    s += tmpl.outputs[oi];
    s += " TO \"store://out/";
    s += tmpl.name;
    s += '_';
    AppendInt(&s, static_cast<long long>(oi));
    s += "\";\n";
  }
  return s;
}

JobInstance Instantiate(const JobTemplate& tmpl, int day, int occurrence,
                        Rng* rng) {
  JobInstance inst;
  inst.template_id = tmpl.id;
  inst.template_name = tmpl.name;
  inst.day = day;
  inst.recurring = tmpl.recurring;
  inst.job_id = tmpl.name;
  inst.job_id += "_d";
  AppendInt(&inst.job_id, day);
  inst.job_id += "_o";
  AppendInt(&inst.job_id, occurrence);
  inst.run_seed = rng->Next();

  // Drift the inputs and register per-occurrence statistics.
  const std::vector<ResolvedTable>& resolved = tmpl.resolved.Get(tmpl.tables);
  for (size_t t = 0; t < tmpl.tables.size(); ++t) {
    const TableSpec& table = tmpl.tables[t];
    const ResolvedTable& r = resolved[t];
    double day_drift = rng->LogNormal(0.0, 0.16);
    double true_rows = std::max(100.0, table.base_rows * day_drift);
    scope::TableStats stats;
    stats.true_rows = true_rows;
    // Stale estimates: template-level bias plus day jitter.
    stats.est_rows =
        std::max(10.0, true_rows * table.est_bias * rng->LogNormal(0.0, 0.12));
    stats.avg_row_bytes = r.avg_row_bytes;
    double scale = true_rows / std::max(1.0, table.base_rows);
    stats.columns.reserve(r.columns.size());
    for (size_t c = 0; c < r.columns.size(); ++c) {
      scope::ColumnStats& cs = stats.columns.Set(r.columns[c]);
      cs.true_ndv =
          std::max(1.0, std::min(r.base_ndv[c] * std::sqrt(scale), true_rows));
      cs.est_ndv = std::max(1.0, cs.true_ndv * rng->LogNormal(0.0, 0.45));
    }
    inst.catalog.RegisterTable(r.path, std::move(stats));
  }

  // Drift filter selectivities and join fanouts, statement by statement.
  std::vector<double> sels, fans;
  for (const SelectSpec& sel : tmpl.selects) {
    for (const FilterSpec& f : sel.filters) {
      double v = f.base_selectivity * rng->LogNormal(0.0, 0.25);
      sels.push_back(std::clamp(v, 0.0005, 0.95));
    }
    for (const JoinSpec& j : sel.joins) {
      double v = j.base_fanout * rng->LogNormal(0.0, 0.12);
      fans.push_back(std::clamp(v, 0.01, 50.0));
    }
  }
  inst.script = RenderScript(tmpl, sels, fans);
  return inst;
}

}  // namespace qo::workload
