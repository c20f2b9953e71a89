#include "exp/experiment_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "api/instance_source.h"
#include "api/registry.h"
#include "exp/aggregator.h"

namespace flowsched {
namespace {

SweepSpec SmallGrid() {
  SweepSpec spec;
  spec.name = "test";
  spec.solvers = {"online.fifo", "online.srpt", "online.random"};
  spec.instances = {"poisson:ports={ports},load={load},rounds=20,seed={seed}"};
  spec.loads = {0.7, 1.0};
  spec.ports = {4, 8};
  spec.seeds = {1, 2};
  spec.base_seed = 7;
  spec.params["validate"] = "1";
  return spec;
}

std::string AggregateReport(const SweepRun& run, const SweepSpec& spec) {
  Aggregator agg(run.plan);
  agg.AddRun(run);
  std::ostringstream json;
  // Timing excluded: wall clock is the one legitimately schedule-dependent
  // part of a report.
  agg.WriteJson(json, spec, run.jobs, run.wall_seconds,
                /*include_timing=*/false);
  return json.str();
}

// The PR's determinism guarantee, as a regression test: the same grid run
// single-threaded and with 8 workers produces identical per-task outcomes
// and a byte-identical aggregate report. online.random is in the solver
// set on purpose — it consumes its seed every round, so any cross-thread
// seed leakage would show up immediately.
TEST(ExperimentRunnerTest, ResultsAreIdenticalAcrossJobCounts) {
  const SweepSpec spec = SmallGrid();
  SweepRun run1, run8;
  std::string error;
  RunnerOptions opt1;
  opt1.jobs = 1;
  ASSERT_TRUE(RunSweep(spec, opt1, run1, &error)) << error;
  RunnerOptions opt8;
  opt8.jobs = 8;
  ASSERT_TRUE(RunSweep(spec, opt8, run8, &error)) << error;

  EXPECT_EQ(run1.failures, 0);
  EXPECT_EQ(run8.failures, 0);
  ASSERT_EQ(run1.outcomes.size(), run8.outcomes.size());
  for (std::size_t i = 0; i < run1.outcomes.size(); ++i) {
    const TaskOutcome& a = run1.outcomes[i];
    const TaskOutcome& b = run8.outcomes[i];
    SCOPED_TRACE("task " + std::to_string(i));
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.total_response, b.total_response);
    EXPECT_EQ(a.avg_response, b.avg_response);
    EXPECT_EQ(a.p50_response, b.p50_response);
    EXPECT_EQ(a.p95_response, b.p95_response);
    EXPECT_EQ(a.p99_response, b.p99_response);
    EXPECT_EQ(a.max_response, b.max_response);
    EXPECT_EQ(a.stddev_response, b.stddev_response);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.peak_backlog, b.peak_backlog);
  }
  EXPECT_EQ(AggregateReport(run1, spec), AggregateReport(run8, spec));
}

// Same guarantee for the realistic-traffic axis: a {dist} grid over the
// builtin CDFs is byte-identical at any parallelism.
TEST(ExperimentRunnerTest, DistGridIsIdenticalAcrossJobCounts) {
  SweepSpec spec;
  spec.name = "dist-test";
  spec.solvers = {"online.srpt", "online.random"};
  spec.instances = {"cdf:dist={dist},ports=16,load=0.9,rounds=30,seed={seed}"};
  spec.dists = {"websearch", "fbhdp", "alistorage"};
  spec.seeds = {1, 2};
  spec.base_seed = 3;
  SweepRun run1, run8;
  std::string error;
  RunnerOptions opt1;
  opt1.jobs = 1;
  ASSERT_TRUE(RunSweep(spec, opt1, run1, &error)) << error;
  RunnerOptions opt8;
  opt8.jobs = 8;
  ASSERT_TRUE(RunSweep(spec, opt8, run8, &error)) << error;
  EXPECT_EQ(run1.failures, 0);
  EXPECT_EQ(run8.failures, 0);
  EXPECT_EQ(AggregateReport(run1, spec), AggregateReport(run8, spec));
  // The aggregate echoes each cell's dist coordinate.
  EXPECT_NE(AggregateReport(run1, spec).find("\"dist\": \"fbhdp\""),
            std::string::npos);
}

TEST(ExperimentRunnerTest, RepeatedRunsAreIdentical) {
  const SweepSpec spec = SmallGrid();
  SweepRun a, b;
  std::string error;
  RunnerOptions opt;
  opt.jobs = 4;
  ASSERT_TRUE(RunSweep(spec, opt, a, &error)) << error;
  ASSERT_TRUE(RunSweep(spec, opt, b, &error)) << error;
  EXPECT_EQ(AggregateReport(a, spec), AggregateReport(b, spec));
}

TEST(ExperimentRunnerTest, TrialsVarySolverSeedsWithinACell) {
  // online.random with two trials on one fixed instance: the two trials
  // get different solver seeds, so their schedules (almost surely) differ,
  // and the cell aggregates n = 2.
  SweepSpec spec;
  spec.name = "trials";
  spec.solvers = {"online.random"};
  spec.instances = {"poisson:ports=8,load=1.0,rounds=20,seed={seed}"};
  spec.seeds = {1};
  spec.trials = 2;
  SweepRun run;
  std::string error;
  ASSERT_TRUE(RunSweep(spec, RunnerOptions{}, run, &error)) << error;
  ASSERT_EQ(run.outcomes.size(), 2u);
  EXPECT_EQ(run.failures, 0);
  EXPECT_NE(run.plan.tasks[0].solver_seed, run.plan.tasks[1].solver_seed);
  Aggregator agg(run.plan);
  agg.AddRun(run);
  EXPECT_EQ(agg.cells()[0].n, 2);
}

TEST(ExperimentRunnerTest, BrokenCellsFailTheirTasksNotTheSweep) {
  SweepSpec spec;
  spec.name = "broken";
  spec.solvers = {"online.fifo"};
  // Two templates: one fine, one a load-time failure (missing trace file).
  // Spec-level mistakes (unknown generator keys) fail the whole expansion
  // instead — see UnknownGeneratorKeysFailTheSweepUpFront.
  spec.instances = {"poisson:ports=4,load=1.0,rounds=10,seed={seed}",
                    "no/such/trace_{seed}.csv"};
  spec.seeds = {1};
  SweepRun run;
  std::string error;
  ASSERT_TRUE(RunSweep(spec, RunnerOptions{}, run, &error)) << error;
  ASSERT_EQ(run.outcomes.size(), 2u);
  EXPECT_TRUE(run.outcomes[0].ok) << run.outcomes[0].error;
  EXPECT_FALSE(run.outcomes[1].ok);
  EXPECT_NE(run.outcomes[1].error.find("no/such/trace_1.csv"),
            std::string::npos)
      << run.outcomes[1].error;
  EXPECT_EQ(run.failures, 1);
}

// Regression for the silent-typo hazard: an unknown key inside a generator
// template used to surface only as per-task failures, after the driver had
// already truncated the previous campaign's JSONL. It is now an expansion
// error naming the offending key.
TEST(ExperimentRunnerTest, UnknownGeneratorKeysFailTheSweepUpFront) {
  SweepSpec spec;
  spec.name = "typo";
  spec.solvers = {"online.fifo"};
  spec.instances = {"poisson:ports=4,load=1.0,rounds=10,bogus=1,seed={seed}"};
  spec.seeds = {1};
  SweepRun run;
  std::string error;
  EXPECT_FALSE(RunSweep(spec, RunnerOptions{}, run, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
  EXPECT_TRUE(run.outcomes.empty());
}

// `--loads=1,-1` used to abort the whole sweep inside the generator
// (exit 134, empty JSONL). An out-of-range axis value is an expansion
// error naming the key, before any task runs.
TEST(ExperimentRunnerTest, OutOfRangeAxisValuesFailTheSweepUpFront) {
  SweepSpec spec;
  spec.name = "negative-load";
  spec.solvers = {"online.fifo"};
  spec.instances = {"poisson:ports=4,load={load},rounds=5,seed=1"};
  spec.loads = {1.0, -1.0};
  SweepRun run;
  std::string error;
  EXPECT_FALSE(RunSweep(spec, RunnerOptions{}, run, &error));
  EXPECT_NE(error.find("load must be"), std::string::npos) << error;
  EXPECT_TRUE(run.outcomes.empty());
}

TEST(ExperimentRunnerTest, JsonlStreamsOneLinePerTask) {
  SweepSpec spec = SmallGrid();
  spec.solvers = {"online.fifo"};
  std::ostringstream jsonl;
  RunnerOptions opt;
  opt.jobs = 2;
  opt.jsonl = &jsonl;
  int last_done = 0, last_total = 0;
  opt.progress = [&](int done, int total) {
    last_done = done;
    last_total = total;
  };
  SweepRun run;
  std::string error;
  ASSERT_TRUE(RunSweep(spec, opt, run, &error)) << error;
  const std::string text = jsonl.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            run.plan.tasks.size());
  EXPECT_EQ(last_done, static_cast<int>(run.plan.tasks.size()));
  EXPECT_EQ(last_total, last_done);
}


// Solvers that prove a lower bound carry it, its ratio and their rounding
// audit into the record and the cell; every other record and the CSV
// header of a grid without such a solver are as before.
TEST(ExperimentRunnerTest, LowerBoundsTravelOnlyWithSolversThatProveOne) {
  SweepSpec spec;
  spec.name = "bound";
  spec.solvers = {"art.theorem1", "mrt.theorem3", "online.fifo"};
  spec.instances = {"poisson:ports=4,load=1.0,rounds=4,seed={seed}"};
  spec.seeds = {1, 2};
  std::ostringstream jsonl;
  RunnerOptions opt;
  opt.jsonl = &jsonl;
  SweepRun run;
  std::string error;
  ASSERT_TRUE(RunSweep(spec, opt, run, &error)) << error;
  ASSERT_EQ(run.failures, 0);
  for (const SweepTask& task : run.plan.tasks) {
    const TaskOutcome& o = run.outcomes[task.index];
    const std::string& solver = run.plan.cells[task.cell].solver;
    SCOPED_TRACE(solver);
    const SolveReport report = SolverRegistry::Global().Solve(
        solver, *LoadInstance(task.instance_spec), {});
    ASSERT_EQ(o.has_lower_bound, report.lower_bound.has_value());
    if (!o.has_lower_bound) continue;
    EXPECT_GT(o.lower_bound, 0.0);
    EXPECT_EQ(o.lower_bound, *report.lower_bound);
    EXPECT_EQ(o.approx_ratio, report.ApproxRatio());
    const char* audit = solver == "art.theorem1" ? "max_window_overload"
                                                 : "max_violation";
    EXPECT_EQ(solver == "art.theorem1" ? o.max_window_overload
                                       : o.max_violation,
              static_cast<long long>(report.diagnostics.at(audit)));
  }
  std::istringstream lines(jsonl.str());
  for (std::string line; std::getline(lines, line);) {
    const bool online = line.find("online.fifo") != std::string::npos;
    EXPECT_EQ(line.find("\"lower_bound\"") == std::string::npos, online);
    EXPECT_EQ(line.find("\"approx_ratio\"") == std::string::npos, online);
  }

  Aggregator agg(run.plan);
  agg.AddRun(run);
  std::ostringstream csv;
  agg.WriteCsv(csv, /*include_timing=*/false);
  EXPECT_NE(csv.str().find(",lower_bound_mean,"), std::string::npos);
  EXPECT_NE(csv.str().find(",approx_ratio_mean,"), std::string::npos);

  spec.solvers = {"online.fifo"};
  SweepRun online;
  ASSERT_TRUE(RunSweep(spec, RunnerOptions{}, online, &error)) << error;
  Aggregator online_agg(online.plan);
  online_agg.AddRun(online);
  std::ostringstream online_csv;
  online_agg.WriteCsv(online_csv, /*include_timing=*/false);
  EXPECT_EQ(online_csv.str().find("lower_bound"), std::string::npos);
}

}  // namespace
}  // namespace flowsched
