// The SCOPE front-end compiler: AST -> logical operator DAG.
#ifndef QO_SCOPE_COMPILER_H_
#define QO_SCOPE_COMPILER_H_

#include <string>

#include "common/status.h"
#include "scope/ast.h"
#include "scope/catalog.h"
#include "scope/logical_plan.h"

namespace qo::scope {

/// Compiles a parsed script against a catalog.
///
/// Responsibilities:
///  - resolve rowset names to producer nodes (building a DAG when a rowset is
///    consumed by several statements),
///  - check every EXTRACT path against the catalog,
///  - derive schemas bottom-up and reject references to unknown columns,
///  - synthesize Filter / Project / Aggregate nodes from SELECT clauses,
///  - bind names: the one place where the names of a script are interned.
///    Definitions (EXTRACT columns, output names, paths) are interned;
///    references are resolved with SymbolTable::Find, so a rejected script
///    grows the symbol table by no more than the names it defines.
///
/// Returns CompileError for semantic errors (unknown rowset, unknown column,
/// aggregate misuse, missing OUTPUT, ...).
Result<LogicalPlan> CompileScript(const Script& script, const Catalog& catalog);

/// Convenience: parse + compile in one step.
Result<LogicalPlan> CompileSource(const std::string& source,
                                  const Catalog& catalog);

}  // namespace qo::scope

#endif  // QO_SCOPE_COMPILER_H_
