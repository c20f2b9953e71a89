// Internal: the diagnostic groups the policy solver adapter
// (api/policy_solvers.cc) reports beyond its per-run counters, each
// group's doc rows next to the code that emits it.
#ifndef FLOWSCHED_API_POLICY_DIAGNOSTICS_H_
#define FLOWSCHED_API_POLICY_DIAGNOSTICS_H_

#include <map>
#include <string>
#include <vector>

#include "api/solver.h"
#include "core/online/policy.h"
#include "core/online/simulator.h"
#include "scenario/scenario.h"

namespace flowsched {
namespace internal {

// Coflow completion time (CCT) statistics of `schedule` (coflow/
// coflow_metrics.h); untagged flows count as singleton groups.
void AppendCctDiagnosticDocs(std::vector<SolverKeyDoc>* docs);
void AddCctDiagnostics(const Instance& instance, const Schedule& schedule,
                       std::map<std::string, double>* diagnostics);

// Matching-kernel counters (SchedulingPolicy::matching_stats): the matcher
// rows when the policy ran a matcher, the auction rows when it bid.
void AppendMatchingDiagnosticDocs(std::vector<SolverKeyDoc>* docs);
void AddMatchingDiagnostics(const PolicyMatchingStats& stats,
                            std::map<std::string, double>* diagnostics);

// Robustness of a scenario run against its fault-free baseline; both
// results carry their schedules on `instance`'s flow ids.
void AppendScenarioDiagnosticDocs(std::vector<SolverKeyDoc>* docs);
void AddScenarioDiagnostics(const ScenarioScript& script,
                            const Instance& instance,
                            const SimulationResult& run,
                            const SimulationResult& base,
                            std::map<std::string, double>* diagnostics);

}  // namespace internal
}  // namespace flowsched

#endif  // FLOWSCHED_API_POLICY_DIAGNOSTICS_H_
