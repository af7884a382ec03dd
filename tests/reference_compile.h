// The tests' reference oracle for compilation: the front end and the
// optimizer called directly, with no engine, compilation cache or
// cross-config memo in between. Every cached or memoized compile must be
// byte-identical to it (or fail with the identical status).
#ifndef QO_TESTS_REFERENCE_COMPILE_H_
#define QO_TESTS_REFERENCE_COMPILE_H_

#include "common/status.h"
#include "optimizer/optimizer.h"
#include "optimizer/rules.h"
#include "scope/compiler.h"
#include "workload/template_gen.h"

namespace qo {

inline Result<opt::CompilationOutput> ReferenceCompile(
    const workload::JobInstance& job, const opt::RuleConfig& config) {
  QO_ASSIGN_OR_RETURN(scope::LogicalPlan logical,
                      scope::CompileSource(job.script, job.catalog));
  return opt::Optimizer(job.catalog).Optimize(logical, config);
}

}  // namespace qo

#endif  // QO_TESTS_REFERENCE_COMPILE_H_
