// The experiment executor: one task loop, ExecuteSweepPlan, with two
// sinks on top of it.
//
//   RunSweep     keeps every outcome in memory (SweepRun), streams each
//                finished task as a JSONL line, reports progress
//   RunCampaign  (campaign/campaign_runner.h) skips tasks resume found
//                done, stops early under --fail-fast, and writes each
//                finished task's durable outcome.json + meta.json
//
// The loop materializes the unique instances its tasks reference, once
// each and in parallel on the pool (generating fifty 50k-flow Poisson
// families is itself parallel work), then runs one pool task per sweep
// task. Outcome records use the one schema in exp/task_outcome.h.
//
// Determinism contract: every task runs a freshly Create()d solver (its own
// SimulationContext, scratch, and policy state) on a read-only shared
// Instance, seeded from the task's precomputed solver_seed, so everything
// except wall-clock fields is byte-identical for any --jobs value. Callers
// that aggregate do so afterwards, in task order (exp/aggregator.h).
// LoadInstance and Solve are safe to call concurrently: the registry is
// read-only after startup and solvers own all their mutable state.
#ifndef FLOWSCHED_EXP_EXPERIMENT_RUNNER_H_
#define FLOWSCHED_EXP_EXPERIMENT_RUNNER_H_

#include <atomic>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "api/registry.h"
#include "exp/sweep_spec.h"
#include "exp/task_outcome.h"

namespace flowsched {

struct RunnerOptions {
  int jobs = 1;  // Clamped to >= 1.
  // Registry to resolve solvers from; nullptr = SolverRegistry::Global().
  const SolverRegistry* registry = nullptr;
  // When set, one JSON line per completed task is appended here, in
  // completion order (schedule-dependent; each line carries its task
  // index). This is the crash-safe incremental record of a long campaign.
  std::ostream* jsonl = nullptr;
  // Progress callback, called after each task completes (serialized).
  std::function<void(int done, int total)> progress;
};

struct SweepRun {
  SweepPlan plan;
  std::vector<TaskOutcome> outcomes;  // Indexed by SweepTask::index.
  int jobs = 1;                       // Actual worker count used.
  double wall_seconds = 0.0;          // Whole-sweep wall clock.
  int failures = 0;                   // Tasks with ok == false.
};

// Expands `spec` and runs it. Returns false and fills *error only for spec
// errors (bad grid, unknown solvers); per-task failures (bad instance spec,
// solver rejection) are recorded in the matching TaskOutcome instead so one
// broken cell cannot void a campaign.
bool RunSweep(const SweepSpec& spec, const RunnerOptions& options,
              SweepRun& run, std::string* error);

// Called once per finished task, serialized, in completion order, with
// the task's wall time (instance lookup + solve).
using TaskDoneFn = std::function<void(const SweepTask& task,
                                      const TaskOutcome& outcome,
                                      double task_seconds)>;

// The one task loop behind RunSweep and RunCampaign. Runs every task of
// `plan` whose `run_mask` entry is nonzero (all tasks when the mask is
// empty) on a `jobs`-worker ThreadPool. A task that starts after `stop`
// (optional) is set is skipped without a callback.
void ExecuteSweepPlan(const SweepSpec& spec, const SweepPlan& plan,
                      const SolverRegistry& registry, int jobs,
                      const std::vector<char>& run_mask,
                      const std::atomic<bool>* stop,
                      const TaskDoneFn& on_done);

}  // namespace flowsched

#endif  // FLOWSCHED_EXP_EXPERIMENT_RUNNER_H_
