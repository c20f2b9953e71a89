// Internal: registration hooks for the built-in solver adapters
// (api/offline_solvers.cc for art.* / mrt.*, api/policy_solvers.cc for the
// online.*, coflow.* and fabric.* policy adapters). Use
// RegisterBuiltinSolvers (api/registry.h) from application code.
#ifndef FLOWSCHED_API_BUILTIN_SOLVERS_H_
#define FLOWSCHED_API_BUILTIN_SOLVERS_H_

namespace flowsched {

class SolverRegistry;

namespace internal {

// art.theorem1, art.exact, mrt.theorem3, mrt.exact, mrt.deadline.
void RegisterOfflineSolvers(SolverRegistry& registry);

// online.<policy> for every AllPolicyNames() entry, coflow.<policy> for
// every AllCoflowPolicyNames() entry, and fabric.<policy>: the coflow-aware
// names first, then the remaining flow-level ones.
void RegisterPolicySolvers(SolverRegistry& registry);

}  // namespace internal
}  // namespace flowsched

#endif  // FLOWSCHED_API_BUILTIN_SOLVERS_H_
