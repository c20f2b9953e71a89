// The two batch workloads. Both solve fixed 256-port cells through
// SolverRegistry::Solve with default parameters, as a researcher would:
//
//   batch-maxweight  online.maxweight on a Poisson and a WebSearch cell,
//                    coflow.maxweight on a coflow cell. The exact default
//                    matcher does most of the work.
//   batch-light      online.srpt, coflow.sebf and fabric.sebf (4 pods) on
//                    1000-round coflow cells at load 0.85. No matcher
//                    runs; the round loop, coflow bookkeeping and fabric
//                    runner carry it.
//
// The traced run repeats the cells through core Simulate with the policy
// wrapped in TracingPolicy, then replays the recorded rounds through the
// graph and coflow kernels one at a time.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "bench.h"
#include "coflow/coflow_policies.h"
#include "core/online/simulator.h"
#include "fabric/fabric_partition.h"
#include "graph/auction_matching.h"
#include "graph/incremental_matching.h"
#include "graph/max_weight_matching.h"
#include "model/metrics.h"
#include "serve/daemon.h"

namespace perfbench {
namespace {

using flowsched::Instance;
using flowsched::PendingFlow;
using flowsched::SolveReport;

// The eps of the replayed auction matcher (the setting PR-era campaigns
// measured as ~10x faster than exact on these cells).
constexpr double kAuctionEps = 0.5;
constexpr int kFabricShards = 4;

struct Cell {
  std::string solver;
  std::string spec;
  bool traffic = false;  // A cdf: spec, generated by the traffic layer.
  Instance instance = Instance();
  bool simulatable() const { return solver.rfind("fabric.", 0) != 0; }
};

// Cell k of a run draws its instance from seed * 10 + k + 1.
std::vector<Cell> MakeCells(const Args& args) {
  const auto seed = [&](int k) { return std::to_string(args.seed * 10 + k + 1); };
  if (args.workload == "batch-maxweight") {
    return {
        {"online.maxweight",
         "poisson:ports=256,load=1.0,rounds=195,seed=" + seed(0)},
        {"online.maxweight",
         "cdf:dist=websearch,ports=256,load=0.9,rounds=195,seed=" + seed(1),
         true},
        {"coflow.maxweight",
         "coflow:ports=256,load=1.0,rounds=195,width=16,skew=0.7,seed=" +
             seed(2)},
    };
  }
  // Below saturation, so that a cell's work varies little from seed to
  // seed. A cell has about 218k flows, well between two powers of two, so
  // vector growth does not make peak_rss_mb jump from seed to seed.
  const std::string coflow =
      "coflow:ports=256,load=0.85,rounds=1000,width=16,skew=0.7,seed=";
  return {
      {"online.srpt", coflow + seed(0)},
      {"coflow.sebf", coflow + seed(1)},
      {"fabric.sebf", "fabric:shards=4,partition=block," + coflow + seed(2)},
  };
}

std::string Label(const Cell& cell) { return cell.solver + " on " + cell.spec; }

std::unique_ptr<flowsched::SchedulingPolicy> MakeCellPolicy(
    const Cell& cell, Outcome& outcome) {
  std::string error;
  auto policy = flowsched::MakeServePolicy(cell.solver, &error);
  outcome.Check(policy != nullptr, "policy for " + cell.solver + " " + error);
  return policy;
}

// Replays each round of a maxweight policy through BacklogGraphBuilder and
// the three matchers, with the policy's documented weights, and checks
// the exact kernels against the policy's own picks.
class MatcherReplay : public RoundObserver {
 public:
  MatcherReplay(bool coflow_weights, Tracer* tracer)
      : coflow_weights_(coflow_weights), tracer_(tracer) {}

  void OnRound(const flowsched::SwitchSpec& sw,
               std::span<const PendingFlow> pending,
               std::span<const int> picked) override {
    if (pending.empty()) return;  // The policies return before matching.
    ++rounds;
    Clock::time_point t0 = Clock::now();
    if (coflow_weights_) {
      stats_.Update(sw, pending, /*with_bottlenecks=*/false);
      const Clock::time_point t1 = Clock::now();
      tracer_->Add("coflow.stats_update", t0, t1);
      live_groups += static_cast<long long>(stats_.touched().size());
      t0 = t1;
    }
    const flowsched::BipartiteGraph& g = builder_.Build(sw, pending);
    Clock::time_point t1 = Clock::now();
    tracer_->Add("graph.build", t0, t1);
    weight_.resize(pending.size());
    if (coflow_weights_) {
      // coflow/coflow_policies.h: 1 + 1 / (1 + remaining group demand).
      for (std::size_t i = 0; i < pending.size(); ++i) {
        const auto rem =
            static_cast<double>(stats_.rem(stats_.slot_of_pending(i)));
        weight_[i] = 1.0 + 1.0 / (1.0 + rem);
      }
    } else {
      // core/online/max_weight_policy.h: the sum of the endpoint queue
      // lengths.
      in_queue_.assign(sw.num_inputs(), 0);
      out_queue_.assign(sw.num_outputs(), 0);
      for (const PendingFlow& f : pending) {
        ++in_queue_[f.src];
        ++out_queue_[f.dst];
      }
      for (std::size_t i = 0; i < pending.size(); ++i) {
        weight_[i] = static_cast<double>(in_queue_[pending[i].src] +
                                         out_queue_[pending[i].dst]);
      }
    }
    t0 = Clock::now();
    hungarian_.Solve(g, weight_, &exact_);
    t1 = Clock::now();
    tracer_->Add("graph.hungarian", t0, t1);
    warm_.Solve(g, weight_, &warm_picks_);
    t0 = Clock::now();
    tracer_->Add("graph.warmstart", t1, t0);
    auction_.Solve(g, weight_, kAuctionEps, &auction_picks_);
    t1 = Clock::now();
    tracer_->Add("graph.auction", t0, t1);

    sorted_picked_.assign(picked.begin(), picked.end());
    std::sort(sorted_picked_.begin(), sorted_picked_.end());
    std::sort(exact_.begin(), exact_.end());
    std::sort(warm_picks_.begin(), warm_picks_.end());
    if (exact_ != sorted_picked_) ++hungarian_mismatches;
    if (warm_picks_ != sorted_picked_) ++warm_mismatches;
    const double optimum = Weight(exact_);
    const double slack =
        static_cast<double>(auction_picks_.size()) * kAuctionEps + 1e-9;
    if (Weight(auction_picks_) < optimum - slack) ++auction_violations;
  }

  void OnRetire(std::span<const flowsched::FlowId> completed,
                std::span<const flowsched::CoflowId> drained) override {
    if (coflow_weights_) stats_.Retire(completed, drained);
  }

  const flowsched::AuctionMatcher::Stats& auction_stats() const {
    return auction_.stats();
  }

  long long rounds = 0;
  long long live_groups = 0;
  long long hungarian_mismatches = 0;
  long long warm_mismatches = 0;
  long long auction_violations = 0;

 private:
  double Weight(const std::vector<int>& edges) const {
    double w = 0.0;
    for (int e : edges) w += weight_[e];
    return w;
  }

  bool coflow_weights_;
  Tracer* tracer_;
  flowsched::CoflowBacklogStats stats_;
  flowsched::BacklogGraphBuilder builder_;
  flowsched::MaxWeightMatcher hungarian_;
  flowsched::IncrementalMatcher warm_;
  flowsched::AuctionMatcher auction_;
  std::vector<int> in_queue_;
  std::vector<int> out_queue_;
  std::vector<double> weight_;
  std::vector<int> exact_;
  std::vector<int> warm_picks_;
  std::vector<int> auction_picks_;
  std::vector<int> sorted_picked_;
};

bool Generate(std::vector<Cell>& cells, Outcome& outcome, Tracer* tracer) {
  for (Cell& cell : cells) {
    ScopedSpan span(tracer,
                    cell.traffic ? "traffic.generate" : "workload.generate");
    if (!LoadSpec(cell.spec, &cell.instance, outcome)) return false;
  }
  return true;
}

double RoundsSimulated(const SolveReport& report) {
  const auto it = report.diagnostics.find("rounds_simulated");
  return it == report.diagnostics.end() ? 0.0 : it->second;
}

void RunUntraced(const Args& args, std::vector<Cell>& cells,
                 Outcome& outcome) {
  const Clock::time_point start = Clock::now();
  // Set-up: generating every cell's instance, five times.
  std::vector<double> setup_s;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    if (!Generate(cells, outcome, nullptr)) return;
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  // Passes until the time is used up (at least three). A pass solves every
  // cell through the registry, timed, then simulates each simulatable cell
  // once more with one clock read per decision. Pass 0 yields the quality
  // figures; later passes must reproduce its totals.
  const flowsched::SolverRegistry& registry =
      flowsched::SolverRegistry::Global();
  Quality quality;
  std::vector<double> first_total(cells.size(), 0.0);
  double rounds_per_pass = 0.0;
  std::vector<std::vector<double>> solve_s(cells.size());
  // [cell][pass][round]: interval between consecutive decisions.
  std::vector<std::vector<std::vector<double>>> gaps_us(cells.size());
  int passes = 0;
  // Peak resident set after set-up and one pass; later passes only repeat
  // the work.
  double peak_rss_mb = 0.0;
  for (;; ++passes) {
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      const Clock::time_point t0 = Clock::now();
      const SolveReport report = registry.Solve(cell.solver, cell.instance);
      solve_s[i].push_back(SecondsBetween(t0, Clock::now()));
      outcome.Op(report.ok, Label(cell) + " " + report.error);
      if (!report.ok) continue;
      if (passes == 0) {
        quality.Add(cell.instance, report.schedule,
                    report.metrics.total_response,
                    report.metrics.max_response);
        first_total[i] = report.metrics.total_response;
        rounds_per_pass += RoundsSimulated(report);
      } else {
        outcome.Check(report.metrics.total_response == first_total[i],
                      "pass " + std::to_string(passes) +
                          " reproduces total_response of " + Label(cell));
      }
      if (!cell.simulatable()) continue;
      auto policy = MakeCellPolicy(cell, outcome);
      if (policy == nullptr) continue;
      std::vector<Clock::time_point> times;
      TracingPolicy timed(*policy, nullptr, nullptr, &times);
      const flowsched::SimulationResult r =
          flowsched::Simulate(cell.instance, timed);
      outcome.Check(!r.truncated && r.metrics.total_response == first_total[i],
                    "decision timing reproduces the registry schedule of " +
                        Label(cell));
      std::vector<double> gaps;
      for (std::size_t k = 1; k < times.size(); ++k) {
        gaps.push_back(SecondsBetween(times[k - 1], times[k]) * 1e6);
      }
      gaps_us[i].push_back(std::move(gaps));
    }
    const double pass_s = SecondsBetween(pass_start, Clock::now());
    if (passes == 0) peak_rss_mb = PeakRssMb();
    if (passes + 1 >= 3 &&
        SecondsBetween(start, Clock::now()) + 1.2 * pass_s > args.seconds) {
      ++passes;
      break;
    }
  }

  // Minima across passes, per cell and per round (see MinAcross). The
  // decision percentiles are per cell, then averaged: the cells' round
  // times differ several-fold, and a percentile of the pooled mixture
  // would sit on the steep edge between them.
  double solve = 0.0, p50 = 0.0, p99 = 0.0;
  int timed_cells = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    solve += Min(solve_s[i]);
    if (gaps_us[i].empty()) continue;
    const std::vector<double> per_round = MinAcross(gaps_us[i]);
    p50 += Quantile(per_round, 0.50);
    p99 += Quantile(per_round, 0.99);
    ++timed_cells;
  }
  p50 /= std::max(timed_cells, 1);
  p99 /= std::max(timed_cells, 1);
  outcome.Metric("setup_s", Median(setup_s), "s");
  outcome.Metric("solve_s", solve, "s");
  outcome.Metric("avg_response", quality.avg_response(), "rounds");
  outcome.Metric("max_response", quality.max_response(), "rounds");
  outcome.Metric("avg_cct", quality.avg_cct(), "rounds");
  outcome.Metric("decision_p50_us", p50, "us");
  outcome.Metric("decision_p99_us", p99, "us");
  outcome.Metric("max_rate_rps", rounds_per_pass / solve, "1/s");
  outcome.Metric("peak_rss_mb", peak_rss_mb, "MB");
  std::cout << "# passes " << passes << ", rounds per pass " << rounds_per_pass
            << '\n';
  CheckPinned(args,
              {{"avg_response", quality.avg_response()},
               {"max_response", quality.max_response()},
               {"avg_cct", quality.avg_cct()}},
              outcome);
}

void RunTraced(const Args& args, std::vector<Cell>& cells, Outcome& outcome) {
  Tracer tracer(args.workload + "-seed" + std::to_string(args.seed));
  if (!Generate(cells, outcome, &tracer)) return;
  const flowsched::SolverRegistry& registry =
      flowsched::SolverRegistry::Global();

  // 1. The untraced path: registry solves, then the metrics layer alone.
  std::vector<SolveReport> reports;
  double api_ms_sim_cells = 0.0;
  for (const Cell& cell : cells) {
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(&tracer, "api.solve");
      reports.push_back(registry.Solve(cell.solver, cell.instance));
    }
    if (cell.simulatable()) {
      api_ms_sim_cells += SecondsBetween(t0, Clock::now()) * 1e3;
    }
    outcome.Op(reports.back().ok, Label(cell) + " " + reports.back().error);
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!reports[i].ok) continue;
    ScopedSpan span(&tracer, "model.metrics");
    flowsched::ComputeMetrics(cells[i].instance, reports[i].schedule);
  }

  // 2. core Simulate, plain and decorated, on the simulatable cells.
  double plain_ms = 0.0;
  double decorated_ms = 0.0;
  double select_ms = 0.0;
  long long calls = 0, pending = 0, picked = 0;
  long long solves = 0, cache_hits = 0, reused_rows = 0, total_rows = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    if (!cell.simulatable()) continue;
    auto plain = MakeCellPolicy(cell, outcome);
    auto policy = MakeCellPolicy(cell, outcome);
    if (plain == nullptr || policy == nullptr) continue;
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(&tracer, "core.simulate.untraced");
      flowsched::Simulate(cell.instance, *plain);
    }
    plain_ms += SecondsBetween(t0, Clock::now()) * 1e3;
    TracingPolicy traced(*policy, &tracer, nullptr, nullptr);
    t0 = Clock::now();
    flowsched::SimulationResult r;
    {
      ScopedSpan span(&tracer, "core.simulate");
      r = flowsched::Simulate(cell.instance, traced);
    }
    decorated_ms += SecondsBetween(t0, Clock::now()) * 1e3;
    outcome.Check(reports[i].ok && !r.truncated &&
                      r.metrics.total_response ==
                          reports[i].metrics.total_response,
                  "traced Simulate reproduces the registry schedule of " +
                      Label(cell));
    select_ms += traced.select_ms();
    calls += traced.calls();
    pending += traced.pending_total();
    picked += traced.picked_total();
    const flowsched::PolicyMatchingStats ms = traced.matching_stats();
    solves += ms.matcher_solves;
    cache_hits += ms.matcher_cache_hits;
    reused_rows += ms.matcher_reused_rows;
    total_rows += ms.matcher_total_rows;
  }

  // 3. Replays: each round again, through one kernel at a time.
  long long replay_rounds = 0, live_groups = 0, auction_bids = 0,
            auction_cold = 0;
  for (const Cell& cell : cells) {
    if (!cell.simulatable() || cell.solver == "online.srpt") continue;
    auto policy = MakeCellPolicy(cell, outcome);
    if (policy == nullptr) continue;
    const bool maxweight = cell.solver.ends_with(".maxweight");
    MatcherReplay matchers(cell.solver == "coflow.maxweight", &tracer);
    CoflowStatsReplay stats(&tracer);
    RoundObserver* observer = maxweight
                                  ? static_cast<RoundObserver*>(&matchers)
                                  : static_cast<RoundObserver*>(&stats);
    TracingPolicy observed(*policy, nullptr, observer, nullptr);
    {
      ScopedSpan span(&tracer, "bench.replay");
      flowsched::Simulate(cell.instance, observed);
    }
    if (maxweight) {
      outcome.Check(matchers.hungarian_mismatches == 0,
                    "replayed exact Hungarian picks equal the policy's on " +
                        Label(cell));
      outcome.Check(matchers.warm_mismatches == 0,
                    "replayed warm-start picks equal the policy's on " +
                        Label(cell));
      outcome.Check(matchers.auction_violations == 0,
                    "replayed auction weight within n*eps of optimal on " +
                        Label(cell));
      live_groups += matchers.live_groups;
      if (cell.solver == "coflow.maxweight") replay_rounds += matchers.rounds;
      auction_bids += matchers.auction_stats().bids;
      auction_cold += matchers.auction_stats().cold_restarts;
    } else {
      replay_rounds += stats.rounds;
      live_groups += stats.live_groups;
    }
  }

  // 4. Fabric: partition, then each pod's simulation on its own.
  double partition_ms = 0.0, shard_ms_max = 0.0, imbalance = 0.0;
  double cross_shard = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    if (cell.simulatable()) continue;
    Clock::time_point t0 = Clock::now();
    flowsched::FabricAssignment fa;
    {
      ScopedSpan span(&tracer, "fabric.partition");
      fa = flowsched::PartitionInstance(cell.instance, kFabricShards,
                                        flowsched::FabricPartition::kBlock);
    }
    partition_ms += SecondsBetween(t0, Clock::now()) * 1e3;
    imbalance = std::max(imbalance, fa.LoadImbalance());
    cross_shard += static_cast<double>(fa.cross_shard_flows);
    double shard_total_response = 0.0;
    for (const Instance& shard : fa.shard_instances) {
      if (shard.num_flows() == 0) continue;
      auto policy = flowsched::MakeCoflowPolicy("sebf");
      t0 = Clock::now();
      flowsched::SimulationResult r;
      {
        ScopedSpan span(&tracer, "fabric.shard");
        r = flowsched::Simulate(shard, *policy);
      }
      shard_ms_max =
          std::max(shard_ms_max, SecondsBetween(t0, Clock::now()) * 1e3);
      shard_total_response += r.metrics.total_response;
    }
    outcome.Check(reports[i].ok && shard_total_response ==
                                       reports[i].metrics.total_response,
                  "per-pod replay adds up to the fabric schedule of " +
                      Label(cell));
  }

  const auto frac = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  outcome.Metric("workload.generate_ms", tracer.TotalMs("workload.generate"),
                 "ms");
  outcome.Metric("traffic.generate_ms", tracer.TotalMs("traffic.generate"),
                 "ms");
  outcome.Metric("model.metrics_ms", tracer.TotalMs("model.metrics"), "ms");
  outcome.Metric("api.adapter_ms", api_ms_sim_cells - plain_ms, "ms");
  outcome.Metric("bench.trace_overhead_frac", frac(decorated_ms, plain_ms) - 1.0,
                 "ratio");
  outcome.Metric("core.simulate_ms", decorated_ms, "ms");
  outcome.Metric("core.select_ms", select_ms, "ms");
  outcome.Metric("core.loop_self_ms", decorated_ms - select_ms, "ms");
  outcome.Metric("core.rounds", static_cast<double>(calls), "count");
  outcome.Metric("core.pending_per_round", frac(pending, calls), "count");
  outcome.Metric("core.picked_per_round", frac(picked, calls), "count");
  outcome.Metric("core.select_yield", frac(picked, pending), "ratio");
  outcome.Metric("graph.build_ms", tracer.TotalMs("graph.build"), "ms");
  outcome.Metric("graph.hungarian_ms", tracer.TotalMs("graph.hungarian"), "ms");
  outcome.Metric("graph.warmstart_ms", tracer.TotalMs("graph.warmstart"), "ms");
  outcome.Metric("graph.auction_ms", tracer.TotalMs("graph.auction"), "ms");
  outcome.Metric("graph.matcher_solves", static_cast<double>(solves), "count");
  outcome.Metric("graph.cache_hit_frac", frac(cache_hits, solves), "ratio");
  outcome.Metric("graph.reused_row_frac", frac(reused_rows, total_rows),
                 "ratio");
  outcome.Metric("graph.auction_bids", static_cast<double>(auction_bids),
                 "count");
  outcome.Metric("graph.auction_cold_restarts",
                 static_cast<double>(auction_cold), "count");
  outcome.Metric("coflow.stats_update_ms",
                 tracer.TotalMs("coflow.stats_update"), "ms");
  outcome.Metric("coflow.live_groups", frac(live_groups, replay_rounds),
                 "count");
  outcome.Metric("fabric.partition_ms", partition_ms, "ms");
  outcome.Metric("fabric.shard_ms_max", shard_ms_max, "ms");
  outcome.Metric("fabric.load_imbalance", imbalance, "ratio");
  outcome.Metric("fabric.cross_shard_flows", cross_shard, "count");
  ReportTrace(args, tracer, outcome);
}

}  // namespace

void RunBatch(const Args& args, Outcome& outcome) {
  std::vector<Cell> cells = MakeCells(args);
  if (args.trace) {
    RunTraced(args, cells, outcome);
  } else {
    RunUntraced(args, cells, outcome);
  }
}

}  // namespace perfbench
