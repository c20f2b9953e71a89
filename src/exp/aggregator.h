// Aggregator: streams per-task outcomes into per-cell distributional
// statistics and writes the sweep reports.
//
// Each cell is a CellAggregate (exp/task_outcome.h), folded and written
// row by row from the outcome field table, so the reports list exactly the
// fields a task record carries. Confidence intervals are the bootstrap-
// free normal approximation: mean ± 1.96 * stddev / sqrt(n), emitted as
// the half-width (0 for n < 2).
//
// Feeding order matters for bit-exactness: Welford accumulation is not
// associative in floating point, so the runner feeds outcomes in task
// order after the pool drains. That is what makes the final JSON/CSV
// byte-identical across --jobs values; the JSONL stream (written live, in
// completion order) is the schedule-dependent record.
//
// Timing-derived statistics (wall_seconds, rounds_per_sec) are inherently
// non-deterministic; report writers take `include_timing` so CI can
// byte-compare --jobs=1 vs --jobs=N reports with timing stripped.
#ifndef FLOWSCHED_EXP_AGGREGATOR_H_
#define FLOWSCHED_EXP_AGGREGATOR_H_

#include <ostream>
#include <string>
#include <vector>

#include "exp/experiment_runner.h"
#include "exp/sweep_spec.h"
#include "exp/task_outcome.h"
#include "util/stats.h"

namespace flowsched {

// Normal-approximation 95% CI half-width for a RunningStats.
double Ci95HalfWidth(const RunningStats& s);

class Aggregator {
 public:
  explicit Aggregator(const SweepPlan& plan);

  // Streams one outcome into its cell. O(1); call in task order when the
  // aggregate must be bit-exact across schedules.
  void Add(const SweepTask& task, const TaskOutcome& outcome);

  // Convenience: feeds every outcome of a finished run in task order.
  void AddRun(const SweepRun& run);

  const std::vector<CellAggregate>& cells() const { return cells_; }

  // Full report (SWEEP_*.json): spec echo, provenance block, per-cell
  // statistics, totals. `jobs`/`wall_seconds` describe the producing run
  // and are only emitted when include_timing is set.
  void WriteJson(std::ostream& out, const SweepSpec& spec, int jobs,
                 double wall_seconds, bool include_timing) const;

  // One row per cell; header first. Same determinism rules as WriteJson.
  void WriteCsv(std::ostream& out, bool include_timing) const;

 private:
  const SweepPlan& plan_;
  std::vector<CellAggregate> cells_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_EXP_AGGREGATOR_H_
