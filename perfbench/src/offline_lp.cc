// offline-lp: the LP-based algorithms of Theorem 1 (art.theorem1) and
// Theorem 3 (mrt.theorem3) on small Poisson instances, submitted as one
// grid through the exp/ sweep executor at jobs=1. The revised simplex in
// lp/ does most of the work; the executor is measured along with it.
//
// The grid runs through a registry whose two entries wrap the built-in
// solvers and keep each report's schedule and lower bound (LP(0) for
// Theorem 1, rho* for Theorem 3), so the sweep's own outcomes can be
// checked. The traced run calls the algorithm's stages one by one.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "bench.h"
#include "core/art_lp.h"
#include "core/art_rounding.h"
#include "core/art_scheduler.h"
#include "core/mrt_lp.h"
#include "core/mrt_scheduler.h"
#include "exp/experiment_runner.h"
#include "exp/sweep_spec.h"
#include "graph/edge_coloring.h"
#include "graph/expansion.h"
#include "model/metrics.h"

namespace perfbench {
namespace {

using flowsched::Instance;
using flowsched::SolveReport;

// A Theorem 3 solve's time varies several-fold from instance to instance,
// with a long tail on larger instances. A pass therefore solves many tiny
// instances (6 ports, 3 rounds): their LPs stay small, so the tail of the
// per-solve times is short and steady across seeds, and a pass takes
// about a second, so that every task is timed many times in a run.
constexpr int kInstances = 1500;
constexpr const char* kTemplate = "poisson:ports=6,load=1.0,rounds=3,seed={seed}";
// Generating the instances takes milliseconds, so set-up is timed more
// often than in the other workloads.
constexpr int kSetupRepeats = 15;
const char* const kSolvers[] = {"art.theorem1", "mrt.theorem3"};

std::vector<std::uint64_t> InstanceSeeds(const Args& args) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < kInstances; ++i) {
    seeds.push_back(args.seed * 10000 + static_cast<std::uint64_t>(i) + 1);
  }
  return seeds;
}

std::string InstanceSpec(std::uint64_t seed) {
  std::string spec = kTemplate;
  spec.replace(spec.find("{seed}"), 6, std::to_string(seed));
  return spec;
}

// What a wrapped solver saw. The task's solver seed identifies the task.
struct Captured {
  std::string solver;
  std::uint64_t solver_seed = 0;
  double total_response = 0.0;
  double max_response = 0.0;
  double lower_bound = 0.0;
  bool has_lower_bound = false;
  flowsched::Schedule schedule;
};

class CapturingSolver : public flowsched::Solver {
 public:
  CapturingSolver(std::unique_ptr<flowsched::Solver> inner,
                  std::vector<Captured>* sink)
      : inner_(std::move(inner)), sink_(sink) {}
  std::string_view name() const override { return inner_->name(); }
  std::string_view description() const override {
    return inner_->description();
  }
  std::vector<flowsched::SolverKeyDoc> ParamDocs() const override {
    return inner_->ParamDocs();
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const flowsched::SolveOptions& options) override {
    SolveReport report = inner_->Solve(instance, options);
    Captured c;
    c.solver = report.solver;
    c.solver_seed = options.seed;
    c.total_response = report.metrics.total_response;
    c.max_response = report.metrics.max_response;
    c.has_lower_bound = report.lower_bound.has_value();
    c.lower_bound = report.lower_bound.value_or(0.0);
    c.schedule = report.schedule;
    sink_->push_back(std::move(c));
    return report;
  }

 private:
  std::unique_ptr<flowsched::Solver> inner_;
  std::vector<Captured>* sink_;
};

flowsched::SweepSpec GridSpec(const Args& args) {
  flowsched::SweepSpec spec;
  spec.name = "offline-lp";
  spec.solvers.assign(std::begin(kSolvers), std::end(kSolvers));
  spec.instances = {kTemplate};
  spec.seeds = InstanceSeeds(args);
  return spec;
}

// One pass of the grid. Fills *captured in task order.
bool RunGrid(const Args& args, flowsched::SweepRun* run,
             std::vector<Captured>* captured, Outcome& outcome) {
  flowsched::SolverRegistry registry;
  for (const char* name : kSolvers) {
    registry.Register(name, "captures the built-in solver's report", [=] {
      return std::make_unique<CapturingSolver>(
          flowsched::SolverRegistry::Global().Create(name), captured);
    });
  }
  flowsched::RunnerOptions options;
  options.jobs = 1;
  options.registry = &registry;
  captured->clear();
  std::string error;
  if (!outcome.Check(flowsched::RunSweep(GridSpec(args), options, *run, &error),
                     "sweep grid expands " + error)) {
    return false;
  }
  const auto& tasks = run->plan.tasks;
  for (std::size_t i = 0; i < run->outcomes.size(); ++i) {
    const flowsched::TaskOutcome& o = run->outcomes[i];
    outcome.Op(o.ok, run->plan.cells[tasks[i].cell].solver + " on " +
                         tasks[i].instance_spec + " " + o.error);
  }
  // Put the captured reports in task order; each must agree with its
  // task's outcome.
  std::vector<Captured> ordered(tasks.size());
  bool aligned = captured->size() == tasks.size();
  for (Captured& c : *captured) {
    const auto it = std::find_if(tasks.begin(), tasks.end(), [&](const auto& t) {
      return t.solver_seed == c.solver_seed &&
             run->plan.cells[t.cell].solver == c.solver;
    });
    if (it == tasks.end() ||
        run->outcomes[it->index].total_response != c.total_response) {
      aligned = false;
      continue;
    }
    ordered[it->index] = std::move(c);
  }
  *captured = std::move(ordered);
  return outcome.Check(aligned, "captured reports match the sweep outcomes");
}

// Instance of task i, from the instances generated at set-up (which are
// ordered like spec.seeds).
const Instance& TaskInstance(const flowsched::SweepRun& run, std::size_t i,
                             const std::vector<Instance>& instances,
                             const std::vector<std::uint64_t>& seeds) {
  const auto it = std::find(seeds.begin(), seeds.end(),
                            run.plan.tasks[i].instance_seed);
  return instances[static_cast<std::size_t>(it - seeds.begin())];
}

bool Generate(const std::vector<std::uint64_t>& seeds,
              std::vector<Instance>* instances, Outcome& outcome,
              Tracer* tracer) {
  instances->assign(seeds.size(), Instance());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ScopedSpan span(tracer, "workload.generate");
    if (!LoadSpec(InstanceSpec(seeds[i]), &(*instances)[i], outcome)) {
      return false;
    }
  }
  return true;
}

void RunUntraced(const Args& args, Outcome& outcome) {
  const Clock::time_point start = Clock::now();
  const std::vector<std::uint64_t> seeds = InstanceSeeds(args);
  std::vector<Instance> instances;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    if (!Generate(seeds, &instances, outcome, nullptr)) return;
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  Quality quality;
  double lp0_sum = 0.0, rho_sum = 0.0;
  std::vector<double> first_total;
  // Per task and per pass: the task's wall time; per pass: the executor's
  // own time (pass wall minus the tasks).
  std::vector<std::vector<double>> task_s;
  std::vector<double> overhead_s;
  std::vector<std::string> run_solvers;  // Per task.
  // Peak resident set after set-up and one pass; later passes only repeat
  // the work.
  double peak_rss_mb = 0.0;
  for (int pass = 0;; ++pass) {
    flowsched::SweepRun run;
    std::vector<Captured> captured;
    const Clock::time_point t0 = Clock::now();
    const bool ok = RunGrid(args, &run, &captured, outcome);
    const double pass_s = SecondsBetween(t0, Clock::now());
    if (!ok) return;
    task_s.resize(run.outcomes.size());
    double tasks_total = 0.0;
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
      task_s[i].push_back(run.outcomes[i].wall_seconds);
      tasks_total += run.outcomes[i].wall_seconds;
    }
    overhead_s.push_back(pass_s - tasks_total);
    if (pass == 0) {
      for (const flowsched::SweepTask& t : run.plan.tasks) {
        run_solvers.push_back(run.plan.cells[t.cell].solver);
      }
      for (std::size_t i = 0; i < captured.size(); ++i) {
        const Captured& c = captured[i];
        const Instance& instance = TaskInstance(run, i, instances, seeds);
        if (!run.outcomes[i].ok) continue;
        quality.Add(instance, c.schedule, c.total_response, c.max_response);
        first_total.push_back(c.total_response);
        const bool bound_ok = c.has_lower_bound && std::isfinite(c.lower_bound) &&
                              c.lower_bound > 0.0;
        outcome.Check(bound_ok, c.solver + " reports a positive lower bound on " +
                                    run.plan.tasks[i].instance_spec);
        if (c.solver == "art.theorem1") {
          lp0_sum += c.lower_bound;
        } else {
          rho_sum += c.lower_bound;
          // Theorem 3: the rounded schedule stays within the rho* windows.
          outcome.Check(c.max_response <= c.lower_bound,
                        "mrt.theorem3 max response within rho* on " +
                            run.plan.tasks[i].instance_spec);
        }
      }
    } else {
      bool same = first_total.size() == captured.size();
      for (std::size_t i = 0; same && i < captured.size(); ++i) {
        same = captured[i].total_response == first_total[i];
      }
      outcome.Check(same, "pass " + std::to_string(pass) +
                              " reproduces every task's total response");
    }
    if (pass == 0) peak_rss_mb = PeakRssMb();
    if (pass + 1 >= 3 &&
        SecondsBetween(start, Clock::now()) + 1.2 * pass_s > args.seconds) {
      break;
    }
  }

  // Minima across passes, per task (see MinAcross). The decision
  // percentiles are per solver, then averaged: a Theorem 3 solve takes
  // several times as long as a Theorem 1 solve, and a percentile of the
  // pooled mixture would sit on the steep edge between them.
  std::map<std::string, std::vector<double>> solver_us;
  double solve_s = Min(overhead_s);
  for (std::size_t i = 0; i < task_s.size(); ++i) {
    const double wall = Min(task_s[i]);
    solver_us[run_solvers[i]].push_back(wall * 1e6);
    solve_s += wall;
  }
  double p50 = 0.0, p99 = 0.0;
  for (const auto& [solver, us] : solver_us) {
    p50 += Quantile(us, 0.50) / static_cast<double>(solver_us.size());
    p99 += Quantile(us, 0.99) / static_cast<double>(solver_us.size());
  }
  const std::size_t tasks = task_s.size();
  outcome.Metric("setup_s", Median(setup_s), "s");
  outcome.Metric("solve_s", solve_s, "s");
  outcome.Metric("avg_response", quality.avg_response(), "rounds");
  outcome.Metric("max_response", quality.max_response(), "rounds");
  outcome.Metric("avg_cct", quality.avg_cct(), "rounds");
  outcome.Metric("decision_p50_us", p50, "us");
  outcome.Metric("decision_p99_us", p99, "us");
  outcome.Metric("max_rate_rps", static_cast<double>(tasks) / solve_s, "1/s");
  outcome.Metric("peak_rss_mb", peak_rss_mb, "MB");
  std::cout.precision(17);
  std::cout << "# passes " << overhead_s.size() << ", tasks per pass " << tasks
            << ", sum LP(0) " << lp0_sum << ", sum rho* " << rho_sum << '\n';
  CheckPinned(args,
              {{"avg_response", quality.avg_response()},
               {"max_response", quality.max_response()},
               {"avg_cct", quality.avg_cct()},
               {"lp0_sum", lp0_sum},
               {"rho_sum", rho_sum}},
              outcome);
}

// Theorem 1's interval colouring (core/art_scheduler.cc), replayed from
// the pseudo-schedule: returns the summed ColorBipartiteEdges time.
void ReplayColoring(const Instance& instance,
                    const flowsched::PseudoSchedule& pseudo,
                    const flowsched::ArtRoundingReport& report,
                    Tracer* tracer) {
  const int c = flowsched::ArtSchedulerOptions{}.c;
  const double per_cap_overload =
      static_cast<double>(report.max_window_overload) /
      static_cast<double>(instance.sw().MinCapacity());
  const int h =
      std::max(1, static_cast<int>(std::ceil(per_cap_overload / c)));
  const flowsched::Round end = pseudo.assignment.Makespan();
  const int intervals = static_cast<int>((end + h - 1) / h);
  std::vector<std::vector<flowsched::FlowId>> buckets(intervals);
  for (flowsched::FlowId e = 0; e < instance.num_flows(); ++e) {
    buckets[pseudo.assignment.round_of(e) / h].push_back(e);
  }
  flowsched::ReplicatedGraph rg;
  for (const auto& bucket : buckets) {
    if (bucket.empty()) continue;
    flowsched::Replicate(instance, bucket, &rg);
    ScopedSpan span(tracer, "graph.coloring");
    flowsched::ColorBipartiteEdges(rg.graph,
                                   flowsched::EdgeColoringAlgorithm::kKoenig);
  }
}

void RunTraced(const Args& args, Outcome& outcome) {
  Tracer tracer(args.workload + "-seed" + std::to_string(args.seed));
  const std::vector<std::uint64_t> seeds = InstanceSeeds(args);
  std::vector<Instance> instances;
  if (!Generate(seeds, &instances, outcome, &tracer)) return;

  // The grid through the executor: untraced, inside a span, untraced
  // again (the faster untraced pass is the overhead baseline; the first
  // pass of a process also pays its warm-up).
  flowsched::SweepRun run;
  std::vector<Captured> captured;
  double untraced_s = 0.0, traced_s = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    {
      ScopedSpan span(pass == 1 ? &tracer : nullptr, "exp.sweep");
      ok = RunGrid(args, &run, &captured, outcome);
    }
    const double wall = SecondsBetween(t0, Clock::now());
    if (!ok) return;
    if (pass == 1) {
      traced_s = wall;
    } else {
      untraced_s = pass == 0 ? wall : std::min(untraced_s, wall);
    }
  }
  double task_s = 0.0;
  for (const flowsched::TaskOutcome& o : run.outcomes) task_s += o.wall_seconds;

  // Each instance again, stage by stage.
  long long art_iterations = 0, art_rows = 0, art_cols = 0;
  long long rounding_iterations = 0, mrt_probes = 0, mrt_iterations = 0;
  double feasible_ms = 0.0, infeasible_ms = 0.0;
  bool lp0_consistent = true, search_consistent = true;
  for (std::size_t t = 0; t < captured.size(); ++t) {
    const Instance& instance = TaskInstance(run, t, instances, seeds);
    const Captured& c = captured[t];
    if (c.solver == "art.theorem1") {
      flowsched::ArtLpResult lp;
      {
        ScopedSpan span(&tracer, "lp.art_lp");
        lp = flowsched::SolveArtLp(instance);
      }
      art_iterations += lp.simplex_iterations;
      art_rows += lp.lp_rows;
      art_cols += lp.lp_cols;
      flowsched::ArtRoundingReport report;
      flowsched::PseudoSchedule pseudo;
      {
        ScopedSpan span(&tracer, "core.art_rounding");
        pseudo = flowsched::ArtIterativeRounding(instance, {}, &report);
      }
      rounding_iterations += report.iterations;
      // SolveArtLp is the paper's LP (1)-(4) bound, a separate LP from the
      // rounding's interval-indexed LP(0) that art.theorem1 reports.
      lp0_consistent = lp0_consistent && lp.solved &&
                       report.lp0_objective == c.lower_bound;
      ReplayColoring(instance, pseudo, report, &tracer);
      continue;
    }
    flowsched::MrtSchedulerResult mrt;
    {
      ScopedSpan span(&tracer, "core.mrt");
      mrt = flowsched::MinimizeMaxResponse(instance);
    }
    mrt_probes += mrt.binary_search_probes;
    // core/mrt_scheduler.cc's binary search, probe by probe.
    ScopedSpan search(&tracer, "lp.mrt_search");
    const flowsched::Schedule greedy = flowsched::FifoGreedySchedule(instance);
    flowsched::Round hi = static_cast<flowsched::Round>(
        flowsched::ComputeMetrics(instance, greedy).max_response);
    flowsched::Round lo = 1;
    int probes = 0;
    const auto probe = [&](flowsched::Round rho) {
      const Clock::time_point t0 = Clock::now();
      const flowsched::TimeConstrainedSolution s =
          flowsched::SolveTimeConstrained(
              instance, flowsched::WindowsForMaxResponse(instance, rho));
      const Clock::time_point t1 = Clock::now();
      tracer.Add(s.feasible ? "lp.mrt_feasible" : "lp.mrt_infeasible", t0, t1);
      (s.feasible ? feasible_ms : infeasible_ms) += SecondsBetween(t0, t1) * 1e3;
      mrt_iterations += s.simplex_iterations;
      ++probes;
      return s.feasible;
    };
    while (!probe(hi)) {
      lo = hi + 1;
      hi *= 2;
    }
    flowsched::Round best = hi;
    while (lo < best) {
      const flowsched::Round mid = lo + (best - lo) / 2;
      if (probe(mid)) {
        best = mid;
      } else {
        lo = mid + 1;
      }
    }
    search_consistent = search_consistent && best == mrt.rho_lp &&
                        probes == mrt.binary_search_probes &&
                        static_cast<double>(best) == c.lower_bound;
  }
  outcome.Check(lp0_consistent,
                "SolveArtLp solves and the rounding's LP(0) equals "
                "art.theorem1's bound");
  outcome.Check(search_consistent,
                "replayed MRT search finds mrt.theorem3's rho* in as many "
                "probes");

  const double n_art = static_cast<double>(captured.size()) / 2.0;
  outcome.Metric("workload.generate_ms", tracer.TotalMs("workload.generate"),
                 "ms");
  outcome.Metric("exp.overhead_ms", (run.wall_seconds - task_s) * 1e3, "ms");
  outcome.Metric("lp.art_lp_ms", tracer.TotalMs("lp.art_lp"), "ms");
  outcome.Metric("lp.art_iterations", static_cast<double>(art_iterations),
                 "count");
  outcome.Metric("lp.art_rows", art_rows / n_art, "count");
  outcome.Metric("lp.art_cols", art_cols / n_art, "count");
  outcome.Metric("core.art_rounding_ms", tracer.TotalMs("core.art_rounding"),
                 "ms");
  outcome.Metric("core.art_rounding_iterations",
                 static_cast<double>(rounding_iterations), "count");
  outcome.Metric("graph.coloring_ms", tracer.TotalMs("graph.coloring"), "ms");
  outcome.Metric("core.mrt_total_ms", tracer.TotalMs("core.mrt"), "ms");
  outcome.Metric("core.mrt_probes", static_cast<double>(mrt_probes), "count");
  outcome.Metric("lp.mrt_feasible_ms", feasible_ms, "ms");
  outcome.Metric("lp.mrt_infeasible_ms", infeasible_ms, "ms");
  outcome.Metric("lp.mrt_iterations", static_cast<double>(mrt_iterations),
                 "count");
  outcome.Metric("bench.trace_overhead_frac", traced_s / untraced_s - 1.0,
                 "ratio");
  ReportTrace(args, tracer, outcome);
}

}  // namespace

void RunOfflineLp(const Args& args, Outcome& outcome) {
  if (args.trace) {
    RunTraced(args, outcome);
  } else {
    RunUntraced(args, outcome);
  }
}

}  // namespace perfbench
