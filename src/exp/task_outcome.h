// The task-outcome schema shared by sweeps and campaigns: TaskOutcome (one
// solve, summarized), CellAggregate (one cell's fold of many), and the one
// field table that ties them together.
//
// Every place that touches an outcome's metrics iterates OutcomeFields()
// instead of spelling the list out: OutcomeFromSolveReport, the JSONL /
// outcome.json writer WriteTaskJsonLine, its reader TaskOutcomeFromJson,
// and the Aggregator's Add, WriteJson and WriteCsv (exp/aggregator.h).
// Adding a metric that a solver reports as a diagnostic means adding one
// row; row order is the key order of every record and report.
//
// Groups: kAlways fields are on every successful outcome; a kCoflow,
// kFabric or kScenario field only when the solver emitted that group,
// which its first row marks (num_coflows > 0, shards > 0, and the
// scenario block for has_scenario); kBound fields only when the solver
// proved a lower bound (SolveReport::lower_bound, has_lower_bound), so
// the LP line of Figs 6/7 travels with the offline solvers' records and
// every other record is unchanged. kTiming fields are wall clock: records
// carry them, but they are the one schedule-dependent part, so reports
// drop them unless asked for timing.
#ifndef FLOWSCHED_EXP_TASK_OUTCOME_H_
#define FLOWSCHED_EXP_TASK_OUTCOME_H_

#include <ostream>
#include <span>
#include <string>

#include "api/solver.h"
#include "exp/sweep_spec.h"
#include "util/json.h"
#include "util/stats.h"

namespace flowsched {

// The per-run result the Aggregator consumes: the scalar summary of one
// solve. Deterministic fields first; wall_seconds / rounds_per_sec are the
// only schedule-dependent ones.
struct TaskOutcome {
  bool ok = false;
  std::string error;
  double total_response = 0.0;
  double avg_response = 0.0;
  double p50_response = 0.0;
  double p95_response = 0.0;
  double p99_response = 0.0;
  double max_response = 0.0;
  double stddev_response = 0.0;
  long long makespan = 0;
  long long num_flows = 0;
  long long rounds = 0;        // Simulated rounds (0 offline).
  long long peak_backlog = 0;  // Peak backlog (0 offline).
  // Coflow completion-time diagnostics emitted by coflow.* and fabric.*
  // solvers; num_coflows == 0 for other solvers.
  long long num_coflows = 0;
  double avg_cct = 0.0;
  double p95_cct = 0.0;
  double max_cct = 0.0;
  double avg_slowdown = 0.0;
  // Fabric sharding diagnostics emitted by fabric.* solvers
  // (fabric/fabric_solvers.cc); shards == 0 for everything else.
  long long shards = 0;
  double load_imbalance = 0.0;
  long long cross_shard_flows = 0;
  long long split_coflows = 0;
  // Robustness diagnostics emitted when the task ran under a scenario
  // script (api/scenario_support.h); has_scenario == false for fault-free
  // runs, which carry none of them.
  bool has_scenario = false;
  long long scenario_events = 0;
  long long downtime_rounds = 0;
  double backlog_surge = 0.0;
  long long recovery_drain_rounds = 0;
  double response_inflation = 0.0;
  long long migrated_flows = 0;  // MIGRATE re-homings (0 without MIGRATE).
  // The solver's proven lower bound on its objective (LP(0) for
  // art.theorem1, rho* for mrt.theorem3, the optimum for the exact
  // solvers), objective / lower_bound, and the rounding audits of the two
  // theorems; has_lower_bound == false for solvers that prove none.
  bool has_lower_bound = false;
  double lower_bound = 0.0;
  double approx_ratio = 0.0;
  long long max_window_overload = 0;
  long long max_violation = 0;
  double wall_seconds = 0.0;   // Timing — excluded from determinism checks.
  double rounds_per_sec = 0.0;
};

// One cell's statistics over its (seed, trial) repetitions. Each field
// keeps O(1) state — Welford mean/variance plus min/max via RunningStats —
// so a million-task campaign aggregates in constant memory.
struct CellAggregate {
  int cell = 0;        // Index into the plan's cells.
  int n = 0;           // Successful tasks aggregated.
  int failures = 0;
  int scenario_n = 0;  // Of those, tasks that ran under a scenario script.
  // Counters: totals over the successful tasks (num_flows, num_coflows),
  // or cell-level constants recorded as the max seen (shards — {shards}
  // substitutes into the instance axis — and scenario_events).
  long long num_flows = 0;
  long long num_coflows = 0;
  long long shards = 0;
  long long scenario_events = 0;
  // Distributions, each fed only by tasks carrying the field's group.
  RunningStats total_response;
  RunningStats avg_response;
  RunningStats p50_response;
  RunningStats p95_response;
  RunningStats p99_response;
  RunningStats max_response;
  RunningStats makespan;
  RunningStats peak_backlog;
  RunningStats avg_cct;
  RunningStats p95_cct;
  RunningStats max_cct;
  RunningStats avg_slowdown;
  RunningStats load_imbalance;
  RunningStats cross_shard_flows;
  RunningStats split_coflows;
  RunningStats downtime_rounds;
  RunningStats backlog_surge;
  RunningStats recovery_drain_rounds;
  RunningStats response_inflation;
  RunningStats migrated_flows;
  RunningStats lower_bound;
  RunningStats approx_ratio;
  RunningStats max_window_overload;
  RunningStats max_violation;
  RunningStats wall_seconds;  // Timing (schedule-dependent).
  RunningStats rounds_per_sec;
};

enum class OutcomeGroup {
  kAlways, kCoflow, kFabric, kScenario, kBound, kTiming
};

// How the Aggregator folds one field over a cell's tasks.
struct CellFold {
  enum Kind { kNone, kStats, kSum, kMax };
  Kind kind = kNone;                             // kNone: per-task only.
  RunningStats CellAggregate::*stats = nullptr;  // kStats.
  long long CellAggregate::*counter = nullptr;   // kSum, kMax.
};

// One row of the schema. Rows of a group are contiguous.
struct OutcomeField {
  // The TaskOutcome member, converted from either member type so rows can
  // name it directly.
  struct Member {
    constexpr Member(long long TaskOutcome::*m) : as_int(m) {}
    constexpr Member(double TaskOutcome::*m) : as_double(m) {}
    long long TaskOutcome::*as_int = nullptr;
    double TaskOutcome::*as_double = nullptr;
  };

  const char* key;  // Record key, and the solver diagnostic it copies.
  OutcomeGroup group;
  Member member;
  CellFold fold = {};
  const char* cell_key = nullptr;  // Report key, when it differs from key.

  double Get(const TaskOutcome& o) const {
    return member.as_int != nullptr ? static_cast<double>(o.*member.as_int)
                                    : o.*member.as_double;
  }
  const char* CellKey() const { return cell_key != nullptr ? cell_key : key; }
  bool IsCounter() const {
    return fold.kind == CellFold::kSum || fold.kind == CellFold::kMax;
  }
};

// The schema, in record order.
std::span<const OutcomeField> OutcomeFields();

// Whether an outcome carries a group's fields (kAlways and kTiming:
// always).
bool CarriesGroup(const TaskOutcome& outcome, OutcomeGroup group);

// Converts one SolveReport into its TaskOutcome. Each field copies the
// solver diagnostic of the same name; the response metrics, num_flows,
// rounds (the "rounds_simulated" diagnostic), lower_bound, approx_ratio
// and the timing come from the report itself.
TaskOutcome OutcomeFromSolveReport(const SolveReport& report);

// Writes one task's record as a single JSON line: task identity, then the
// outcome fields its groups carry (or ok=false + error). It is both the
// sweep's JSONL stream line and a campaign task's durable outcome.json.
void WriteTaskJsonLine(std::ostream& out, const SweepCell& cell,
                       const SweepTask& task, const TaskOutcome& outcome);

// Reads a WriteTaskJsonLine record back. Each number comes back exactly as
// written; a record without "ok" reads as a failure.
TaskOutcome TaskOutcomeFromJson(const JsonValue& doc);

}  // namespace flowsched

#endif  // FLOWSCHED_EXP_TASK_OUTCOME_H_
