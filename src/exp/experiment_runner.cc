#include "exp/experiment_runner.h"

#include <algorithm>
#include <mutex>
#include <optional>

#include "api/instance_source.h"
#include "exp/thread_pool.h"
#include "util/stopwatch.h"

namespace flowsched {

void ExecuteSweepPlan(const SweepSpec& spec, const SweepPlan& plan,
                      const SolverRegistry& registry, int jobs,
                      const std::vector<char>& run_mask,
                      const std::atomic<bool>* stop,
                      const TaskDoneFn& on_done) {
  const auto runs = [&](const SweepTask& task) {
    return run_mask.empty() || run_mask[task.index] != 0;
  };
  ThreadPool pool(jobs);

  // Phase 1: materialize each unique instance the tasks to run reference,
  // once, in parallel. Slots are pre-sized, so workers never touch a shared
  // container; a fully resumed grid loads nothing.
  const std::size_t num_instances = plan.unique_instances.size();
  std::vector<char> needed(num_instances, 0);
  for (const SweepTask& task : plan.tasks) {
    if (runs(task)) needed[task.instance_slot] = 1;
  }
  std::vector<std::optional<Instance>> instances(num_instances);
  std::vector<std::string> instance_errors(num_instances);
  for (std::size_t i = 0; i < num_instances; ++i) {
    if (!needed[i]) continue;
    pool.Submit([&, i] {
      instances[i] =
          LoadInstance(plan.unique_instances[i], &instance_errors[i]);
    });
  }
  pool.Wait();

  // Phase 2: one pool task per sweep task.
  std::mutex done_mu;  // Serializes on_done.
  for (const SweepTask& task : plan.tasks) {
    if (!runs(task)) continue;
    pool.Submit([&, &task = task] {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
      Stopwatch timer;
      TaskOutcome outcome;
      const auto& instance = instances[task.instance_slot];
      if (!instance.has_value()) {
        outcome.error = "instance: " + instance_errors[task.instance_slot];
      } else {
        const SweepCell& cell = plan.cells[task.cell];
        SolveOptions solve;
        solve.seed = task.solver_seed;
        solve.max_rounds = static_cast<Round>(spec.max_rounds);
        solve.params = spec.params;
        // The scenario axis forwards as the solver's `scenario` param;
        // "none" is the fault-free point (no param, no overlay work).
        if (cell.scenario && *cell.scenario != "none") {
          solve.params["scenario"] = *cell.scenario;
        }
        outcome = OutcomeFromSolveReport(
            registry.Solve(cell.solver, *instance, solve));
      }
      const double seconds = timer.ElapsedSeconds();
      std::lock_guard<std::mutex> lock(done_mu);
      on_done(task, outcome, seconds);
    });
  }
  pool.Wait();
}

bool RunSweep(const SweepSpec& spec, const RunnerOptions& options,
              SweepRun& run, std::string* error) {
  run = SweepRun{};
  const SolverRegistry& registry =
      options.registry != nullptr ? *options.registry
                                  : SolverRegistry::Global();
  if (!ExpandSweep(spec, registry, run.plan, error)) return false;

  Stopwatch sweep_timer;
  run.jobs = std::max(options.jobs, 1);
  run.outcomes.resize(run.plan.tasks.size());
  int done = 0;
  const int total = static_cast<int>(run.plan.tasks.size());
  ExecuteSweepPlan(
      spec, run.plan, registry, run.jobs, /*run_mask=*/{}, /*stop=*/nullptr,
      [&](const SweepTask& task, const TaskOutcome& outcome, double) {
        run.outcomes[task.index] = outcome;
        ++done;
        if (options.jsonl != nullptr) {
          WriteTaskJsonLine(*options.jsonl, run.plan.cells[task.cell], task,
                            outcome);
          options.jsonl->flush();  // Crash-safe incremental record.
        }
        if (options.progress) options.progress(done, total);
      });

  for (const TaskOutcome& o : run.outcomes) {
    if (!o.ok) ++run.failures;
  }
  run.wall_seconds = sweep_timer.ElapsedSeconds();
  return true;
}

}  // namespace flowsched
