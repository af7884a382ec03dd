// Recurring job templates and their per-occurrence instantiation.
//
// More than 60% of SCOPE jobs are recurring: "periodically arriving
// template-scripts with different input cardinalities and filter predicates"
// (paper Sec. 2.1). A JobTemplate here is a structural spec (inputs, joins,
// filters, aggregation, outputs) from which each occurrence generates:
//   - the script text (same operators; drifted selectivity annotations),
//   - a per-instance catalog (drifted true statistics + stale optimizer
//     estimates).
#ifndef QO_WORKLOAD_TEMPLATE_GEN_H_
#define QO_WORKLOAD_TEMPLATE_GEN_H_

#include <atomic>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/symbol_table.h"
#include "scope/ast.h"
#include "scope/catalog.h"
#include "scope/types.h"

namespace qo::workload {

/// An input table of a template.
struct TableSpec {
  std::string path;
  std::vector<scope::Column> columns;
  double base_rows = 1e6;
  /// Base NDV per column (others default to base_rows / 100).
  std::unordered_map<std::string, double> base_ndv;
  /// Systematic optimizer-estimate bias for this table (stale statistics):
  /// est_rows = true_rows * est_bias (fixed per template, drifts per day).
  double est_bias = 1.0;
};

/// A filter in a template; selectivity drifts per occurrence.
struct FilterSpec {
  std::string column;
  scope::CompareOp op = scope::CompareOp::kEq;
  std::string literal;
  double base_selectivity = 0.1;
};

/// An equi-join step in a template's chain.
struct JoinSpec {
  std::string rowset;      ///< right-side rowset name
  std::string left_column;
  std::string right_column;
  double base_fanout = 1.0;
};

/// One SELECT statement of the template.
struct SelectSpec {
  std::string target;
  std::string from;
  std::vector<scope::SelectItem> items;
  std::vector<JoinSpec> joins;
  std::vector<FilterSpec> filters;
  std::vector<std::string> group_by;
};

/// One UNION ALL statement.
struct UnionSpec {
  std::string target;
  std::string left;
  std::string right;
};

/// What instantiating one table of a template needs beyond its draws: the
/// interned path and column names, each column's base NDV (defaults
/// applied) and the average row width. All parallel to `TableSpec::columns`.
struct ResolvedTable {
  Symbol path = kNoSymbol;
  std::vector<Symbol> columns;
  std::vector<double> base_ndv;
  double avg_row_bytes = 0.0;
};

/// A template's `ResolvedTable`s, built once, on the template's first
/// instantiation, by whichever thread gets there first. Copies start
/// unresolved, so a copied template may be edited before its own first
/// instantiation; a template must not change after it.
class ResolvedTables {
 public:
  ResolvedTables() = default;
  ResolvedTables(const ResolvedTables&) noexcept {}
  ResolvedTables& operator=(const ResolvedTables&);
  ~ResolvedTables();

  const std::vector<ResolvedTable>& Get(
      const std::vector<TableSpec>& tables) const;

 private:
  mutable std::atomic<const std::vector<ResolvedTable>*> resolved_{nullptr};
};

/// A structural job template.
struct JobTemplate {
  int id = 0;
  std::string name;
  bool recurring = true;
  std::vector<TableSpec> tables;
  std::vector<SelectSpec> selects;
  std::vector<UnionSpec> unions;  ///< rendered before the selects
  std::vector<std::string> outputs;  ///< rowsets written (>=1)
  ResolvedTables resolved;  ///< filled by the first Instantiate
};

/// A concrete occurrence of a template on a given day.
struct JobInstance {
  int template_id = 0;
  std::string template_name;
  std::string job_id;  ///< unique per occurrence
  int day = 0;
  bool recurring = true;
  std::string script;      ///< with ground-truth @ annotations
  scope::Catalog catalog;  ///< per-occurrence statistics
  uint64_t run_seed = 0;   ///< base seed for execution randomness
};

/// Generates random-but-plausible job templates. All draws are deterministic
/// given the seed.
class TemplateGenerator {
 public:
  explicit TemplateGenerator(uint64_t seed) : rng_(seed) {}

  /// Creates `count` templates with ids [first_id, first_id+count).
  std::vector<JobTemplate> Generate(int count, int first_id = 0);

  /// Creates one template (public for tests).
  JobTemplate GenerateOne(int id);

 private:
  Rng rng_;
};

/// Instantiates a template for one occurrence: drifts input sizes,
/// selectivities and the optimizer's stale estimates, then renders the
/// script text.
JobInstance Instantiate(const JobTemplate& tmpl, int day, int occurrence,
                        Rng* rng);

/// Renders the script text for a template given concrete per-occurrence
/// selectivities and fanouts: `sels` holds one value per filter and `fans`
/// one per join, in statement order. Exposed for tests.
std::string RenderScript(const JobTemplate& tmpl, std::span<const double> sels,
                         std::span<const double> fans);

}  // namespace qo::workload

#endif  // QO_WORKLOAD_TEMPLATE_GEN_H_
