#include "api/policy_diagnostics.h"

#include "coflow/coflow_metrics.h"
#include "model/coflow.h"
#include "model/metrics.h"

namespace flowsched {
namespace internal {

void AppendCctDiagnosticDocs(std::vector<SolverKeyDoc>* docs) {
  docs->insert(
      docs->end(),
      {{"num_coflows",
        "groups in the instance (untagged flows count as singletons)"},
       {"num_tagged_coflows", "groups that carry a real coflow tag"},
       {"total_cct", "sum of per-group completion times"},
       {"avg_cct", "mean group completion time"},
       {"p50_cct", "median group completion time"},
       {"p95_cct", "95th-percentile group completion time"},
       {"p99_cct", "99th-percentile group completion time"},
       {"max_cct", "slowest group's completion time"},
       {"avg_slowdown",
        "mean CCT / isolation bound (1.0 = as fast as an empty switch)"},
       {"max_slowdown", "worst group slowdown vs isolation"}});
}

void AddCctDiagnostics(const Instance& instance, const Schedule& schedule,
                       std::map<std::string, double>* diagnostics) {
  const CoflowSet coflows(instance);
  const CoflowMetrics cm = ComputeCoflowMetrics(instance, coflows, schedule);
  std::map<std::string, double>& d = *diagnostics;
  d["num_coflows"] = coflows.num_groups();
  d["num_tagged_coflows"] = coflows.num_tagged();
  d["total_cct"] = cm.total_cct;
  d["avg_cct"] = cm.avg_cct;
  d["p50_cct"] = cm.p50_cct;
  d["p95_cct"] = cm.p95_cct;
  d["p99_cct"] = cm.p99_cct;
  d["max_cct"] = cm.max_cct;
  d["avg_slowdown"] = cm.avg_slowdown;
  d["max_slowdown"] = cm.max_slowdown;
}

void AppendMatchingDiagnosticDocs(std::vector<SolverKeyDoc>* docs) {
  docs->insert(
      docs->end(),
      {{"matcher_cache_hits",
        "rounds whose matching problem was identical to the previous "
        "round's (maxweight with warmstart=1)"},
       {"matcher_prefix_resumes",
        "rounds resumed from a per-row Hungarian checkpoint"},
       {"matcher_full_solves", "rounds solved from scratch"},
       {"matcher_reused_rows",
        "Hungarian row insertions skipped via cache hits and resumes"},
       {"matcher_total_rows", "total Hungarian rows across all rounds"},
       {"auction_bids", "price raises across all rounds (approx>0)"},
       {"auction_cold_restarts",
        "warm starts whose certificate failed and were re-run cold"}});
}

void AddMatchingDiagnostics(const PolicyMatchingStats& stats,
                            std::map<std::string, double>* diagnostics) {
  std::map<std::string, double>& d = *diagnostics;
  if (stats.matcher_solves > 0) {
    d["matcher_cache_hits"] = stats.matcher_cache_hits;
    d["matcher_prefix_resumes"] = stats.matcher_prefix_resumes;
    d["matcher_full_solves"] = stats.matcher_full_solves;
    d["matcher_reused_rows"] = stats.matcher_reused_rows;
    d["matcher_total_rows"] = stats.matcher_total_rows;
  }
  if (stats.auction_bids > 0) {
    d["auction_bids"] = stats.auction_bids;
    d["auction_cold_restarts"] = stats.auction_cold_restarts;
  }
}

void AppendScenarioDiagnosticDocs(std::vector<SolverKeyDoc>* docs) {
  docs->insert(
      docs->end(),
      {{"scenario_events", "timed events in the bound scenario script"},
       {"downtime_rounds", "simulated rounds with >= 1 port side down"},
       {"backlog_surge", "scenario peak backlog minus the fault-free run's"},
       {"recovery_drain_rounds",
        "rounds simulated after the last scenario event (post-recovery "
        "drain time)"},
       {"response_inflation",
        "scenario total response / fault-free total response"},
       {"migrated_flows",
        "arrivals re-homed by MIGRATE rules (0 for scripts without MIGRATE; "
        "nothing is ever dropped)"}});
}

void AddScenarioDiagnostics(const ScenarioScript& script,
                            const Instance& instance,
                            const SimulationResult& run,
                            const SimulationResult& base,
                            std::map<std::string, double>* diagnostics) {
  std::map<std::string, double>& d = *diagnostics;
  d["scenario_events"] = static_cast<double>(script.events().size());
  d["downtime_rounds"] = static_cast<double>(run.downtime_rounds);
  d["backlog_surge"] = run.peak_backlog - base.peak_backlog;
  const Round last = script.last_event_round();
  d["recovery_drain_rounds"] =
      static_cast<double>(run.rounds > last ? run.rounds - last : 0);
  const double total = ComputeMetrics(instance, run.schedule).total_response;
  const double base_total =
      ComputeMetrics(instance, base.schedule).total_response;
  d["response_inflation"] = base_total > 0.0 ? total / base_total : 1.0;
  d["migrated_flows"] = static_cast<double>(run.migrated_flows);
}

}  // namespace internal
}  // namespace flowsched
