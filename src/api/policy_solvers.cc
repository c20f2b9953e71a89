// One adapter registers every round-by-round policy as a solver:
// online.<p> simulates MakePolicy(<p>) on one switch (paper §5.2.1);
// coflow.<p> does so with MakeCoflowPolicy(<p>) and adds coflow completion
// time (CCT) diagnostics; fabric.<p> partitions the instance across K pods,
// simulates each with <p> and merges (fabric/fabric_runner.h), adding CCT
// and partition diagnostics. On a fabric the coflow-aware names (sebf,
// maxweight, fifo) win collisions, so `fabric.fifo` is FIFO-of-coflows.
// A name's family picks its runner and extra diagnostics; all else is
// shared. Adaptive adversaries drive the simulator directly instead.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/builtin_solvers.h"
#include "api/policy_diagnostics.h"
#include "api/registry.h"
#include "coflow/coflow_policies.h"
#include "core/online/simulator.h"
#include "fabric/fabric_runner.h"
#include "fabric/fabric_spec.h"

namespace flowsched {
namespace internal {
namespace {

// Bits, so one doc row can name several families.
enum Family : unsigned { kOnline = 1, kCoflow = 2, kFabric = 4 };
constexpr unsigned kOneSwitch = kOnline | kCoflow;
constexpr unsigned kAll = kOneSwitch | kFabric;

struct KeyRow { unsigned families; const char* key; const char* doc; };

// ParamDocs() rows, in order.
const KeyRow kParamRows[] = {
    {kFabric, "shards",
     "pod count K (required unless the instance came from a fabric: spec; "
     "overrides the spec when both are given)"},
    {kFabric, "partition",
     "port partitioner: block or hash (default: the fabric: spec's choice, "
     "else block)"},
    {kFabric, "jobs",
     "threads simulating pods in parallel (default 1; results are "
     "byte-identical for any value)"},
    {kOneSwitch, "record_backlog",
     "0/1 (default 0): keep per-round backlog sizes"},
    {kAll, "scenario",
     "fault-injection script: a file path or inline:<script> with ';' as "
     "the line separator (grammar in docs/scenarios.md); the run replays "
     "under timed port/pod outages and adds robustness diagnostics vs the "
     "fault-free run"},
    {kAll, "validate",
     "0/1 (default 1): audit every policy selection (in every pod, on a "
     "fabric) for duplicates and port overloads; the campaign timing grids "
     "turn this off, the benchmark keeps it on"},
    {kAll, "warmstart",
     "0/1 (default 1, maxweight only): reuse the previous round's Hungarian "
     "work (per pod, on a fabric) via the incremental matcher; bit-exact, "
     "so the schedule is identical either way"},
    {kAll, "approx",
     "eps > 0 (default 0 = exact, maxweight only): eps-approximate auction "
     "matcher (per pod, on a fabric); each round's matched weight is within "
     "backlog*eps of optimal, schedules may differ"},
};

// DiagnosticDocs() rows, in order; the CCT, matching and scenario groups
// (api/policy_diagnostics.h) follow.
const KeyRow kDiagnosticRows[] = {
    {kFabric, "shards", "pod count the run used"},
    {kAll, "rounds_simulated",
     "rounds until the backlog drained (on a fabric, in the slowest pod)"},
    {kAll, "avg_port_utilization",
     "scheduled demand / available bandwidth over the run (1.0 = every port "
     "saturated every round; on a fabric, the mean over pods)"},
    {kAll, "peak_backlog",
     "largest backlog at any policy round (in any pod, on a fabric)"},
    {kFabric, "cross_shard_flows",
     "flows whose destination host lives in another pod (served via a "
     "replica egress port)"},
    {kFabric, "split_coflows",
     "tagged coflows simulated in more than one pod (their CCT is the max "
     "over member pods)"},
    {kFabric, "load_imbalance",
     "max pod demand / mean pod demand (1.0 = balanced)"},
    {kOnline, "max_backlog",
     "largest recorded backlog (only with record_backlog=1)"},
};

std::vector<SolverKeyDoc> DocsFor(std::span<const KeyRow> rows,
                                  Family family) {
  std::vector<SolverKeyDoc> docs;
  for (const KeyRow& row : rows) {
    if ((row.families & family) != 0) docs.push_back({row.key, row.doc});
  }
  return docs;
}

using PolicyFactory = std::function<std::unique_ptr<SchedulingPolicy>(
    std::uint64_t seed, const MatchingOptions& matching)>;

// What registration decides, once per name.
struct PolicyEntry {
  std::string name;
  std::string description;
  PolicyFactory make;
  Family family;
  bool unit_demands = false;  // The policy's RequiresUnitDemands().
};

// One run's knobs: the fabric runner's options, which the one-switch
// runner reads too (make_policy binds the entry's factory to the run's
// MatchingOptions), plus the ones only one runner uses.
struct RunConfig {
  FabricRunOptions run;
  bool record_backlog = false;
  int shards = 0;  // Fabric only, like partition.
  FabricPartition partition = FabricPartition::kBlock;
};

using Diagnostics = std::map<std::string, double>;

// Both runners return the schedule on the instance's flow ids and add
// their own diagnostics to *extra unless it is null (the baseline).
SimulationResult RunOneSwitch(const Instance& instance, const RunConfig& c,
                              bool online, Diagnostics* extra) {
  SimulationOptions sim;
  if (c.run.max_rounds > 0) sim.max_rounds = c.run.max_rounds;
  sim.record_backlog = c.record_backlog;
  sim.validate = c.run.validate;
  sim.scenario = c.run.scenario;
  const auto policy = c.run.make_policy(c.run.seed);
  SimulationResult r = Simulate(instance, *policy, sim);
  if (r.truncated) return r;
  r.schedule = MapRealizedSchedule(instance, r.schedule);
  if (extra == nullptr) return r;
  AddMatchingDiagnostics(policy->matching_stats(), extra);
  if (online && !r.backlog_trace.empty()) {
    (*extra)["max_backlog"] =
        *std::max_element(r.backlog_trace.begin(), r.backlog_trace.end());
  }
  return r;
}

SimulationResult RunPods(const Instance& instance, const RunConfig& c,
                         Diagnostics* extra) {
  // MIGRATE re-homes arrivals before partitioning, so a migrated flow runs
  // in its destination's pod. Flow ids are kept, so the merged schedule
  // still lines up with `instance`.
  SimulationResult run;
  Instance migrated;
  const Instance* pods_instance = &instance;
  if (c.run.scenario != nullptr && c.run.scenario->has_migrations()) {
    migrated = ApplyScenarioMigrations(instance, *c.run.scenario,
                                       &run.migrated_flows);
    pods_instance = &migrated;
  }
  const FabricAssignment fa =
      PartitionInstance(*pods_instance, c.shards, c.partition);
  FabricResult r = RunFabric(*pods_instance, fa, c.run);
  run.truncated = r.truncated;
  run.error = r.error;
  if (r.truncated) return run;
  run.schedule = std::move(r.schedule);
  run.rounds = r.rounds;
  run.peak_backlog = r.peak_backlog;
  run.avg_port_utilization = r.avg_port_utilization;
  run.downtime_rounds = r.downtime_rounds;
  if (extra == nullptr) return run;
  (*extra)["shards"] = c.shards;
  (*extra)["cross_shard_flows"] = static_cast<double>(fa.cross_shard_flows);
  (*extra)["split_coflows"] = fa.split_coflows;
  (*extra)["load_imbalance"] = fa.LoadImbalance();
  return run;
}

bool Fail(std::string* error, std::string message) {
  *error = std::move(message);
  return false;
}

// Fabric topology: the shards / partition params override the instance's
// fabric: source stamp (api/instance_source.h). A missing shard count is
// an error; an ambient default would silently run the wrong topology.
bool ReadTopology(const Instance& instance, const SolveOptions& options,
                  RunConfig* c, std::string* error) {
  FabricSpec stamp;
  const bool stamped = IsFabricSpec(instance.source()) &&
                       ParseFabricSpec(instance.source(), stamp, nullptr);
  std::string perr;
  const long long shards =
      options.IntParamOr("shards", stamped ? stamp.shards : 0, &perr);
  const long long jobs = options.IntParamOr("jobs", 1, &perr);
  if (!perr.empty()) return Fail(error, perr);
  if (options.params.count("shards") > 0 &&
      (shards < 1 || shards > std::numeric_limits<int>::max())) {
    return Fail(error, "parameter shards must be >= 1 and < 2^31, got " +
                           std::to_string(shards));
  }
  c->partition = stamped ? stamp.partition : FabricPartition::kBlock;
  const std::string partition = options.ParamOr("partition", "");
  if (!partition.empty() && !ParsePartitionName(partition, c->partition)) {
    return Fail(error, "parameter partition must be block or hash, got \"" +
                           partition + "\"");
  }
  if (shards < 1) {
    return Fail(error,
                "fabric solvers need a shard count: load a "
                "\"fabric:shards=K,...\" instance or pass shards=K (got " +
                    std::to_string(shards) + ")");
  }
  if (jobs < 1) return Fail(error, "parameter jobs must be >= 1");
  c->shards = static_cast<int>(shards);
  c->run.jobs = static_cast<int>(std::min(jobs, shards));
  return true;
}

class PolicySolver : public Solver {
 public:
  explicit PolicySolver(std::shared_ptr<const PolicyEntry> entry)
      : entry_(std::move(entry)) {}

  std::string_view name() const override { return entry_->name; }
  std::string_view description() const override {
    return entry_->description;
  }
  std::vector<SolverKeyDoc> ParamDocs() const override {
    return DocsFor(kParamRows, entry_->family);
  }
  std::vector<SolverKeyDoc> DiagnosticDocs() const override {
    std::vector<SolverKeyDoc> docs =
        DocsFor(kDiagnosticRows, entry_->family);
    if (entry_->family != kOnline) AppendCctDiagnosticDocs(&docs);
    if (entry_->family != kFabric) AppendMatchingDiagnosticDocs(&docs);
    AppendScenarioDiagnosticDocs(&docs);
    return docs;
  }

 protected:
  SolveReport SolveImpl(const Instance& instance,
                        const SolveOptions& options) override {
    SolveReport report;
    report.objective_name = "total_response";
    RunConfig c;
    ScenarioScript loaded;  // c.run.scenario points here when set.
    if (!Configure(instance, options, &c, &loaded, &report.error)) {
      return report;
    }
    SimulationResult run = Execute(instance, c, &report.diagnostics);
    if (run.truncated) {
      report.error = run.error;
      return report;
    }
    report.ok = true;
    // Pods replicate remote egress ports, so a merged schedule needs K x
    // capacity (docs/architecture.md); MIGRATE's destinations add their
    // capacity as slack, since the audit uses the original ports.
    report.allowance = c.shards > 1 ? CapacityAllowance::Factor(c.shards)
                                    : CapacityAllowance::Exact();
    const ScenarioScript* script = c.run.scenario;
    if (script != nullptr && script->has_migrations()) {
      report.allowance.additive =
          MigrationCapacityAllowance(*script, instance.sw());
    }
    report.diagnostics["rounds_simulated"] = run.rounds;
    report.diagnostics["avg_port_utilization"] = run.avg_port_utilization;
    report.diagnostics["peak_backlog"] = run.peak_backlog;
    if (script != nullptr) {
      // The fault-free baseline (same policy and seeds, no overlay, no
      // migrations) anchors the robustness diagnostics.
      RunConfig base = c;
      base.run.scenario = nullptr;
      base.record_backlog = false;
      AddScenarioDiagnostics(*script, instance, run,
                             Execute(instance, base, nullptr),
                             &report.diagnostics);
    }
    report.schedule = std::move(run.schedule);
    if (entry_->family != kOnline) {
      AddCctDiagnostics(instance, report.schedule, &report.diagnostics);
    }
    return report;
  }

 private:
  SimulationResult Execute(const Instance& instance, const RunConfig& c,
                           Diagnostics* extra) const {
    return entry_->family == kFabric
               ? RunPods(instance, c, extra)
               : RunOneSwitch(instance, c, entry_->family == kOnline, extra);
  }

  bool Configure(const Instance& instance, const SolveOptions& options,
                 RunConfig* c, ScenarioScript* script,
                 std::string* error) const {
    // Matching-based policies FS_CHECK-abort on non-unit demands deep in
    // the round loop; refuse such instances with a recoverable error.
    if (entry_->unit_demands && instance.MaxDemand() > 1) {
      return Fail(error, entry_->name +
                             " is matching-based and requires unit demands");
    }
    std::string perr;
    c->record_backlog = options.IntParamOr("record_backlog", 0, &perr) != 0;
    c->run.validate = options.IntParamOr("validate", 1, &perr) != 0;
    MatchingOptions matching;
    matching.warmstart = options.IntParamOr("warmstart", 1, &perr) != 0;
    matching.approx_eps = options.DoubleParamOr("approx", 0.0, &perr);
    if (!perr.empty()) return Fail(error, perr);
    if (matching.approx_eps < 0.0) return Fail(error, "approx must be >= 0");
    c->run.seed = options.seed;
    c->run.make_policy = [entry = entry_.get(), matching](std::uint64_t s) {
      return entry->make(s, matching);
    };
    if (entry_->family == kFabric &&
        !ReadTopology(instance, options, c, error)) {
      return false;
    }
    if (options.max_rounds > 0) {
      // The simulator FS_CHECK-aborts when flows are still pending at its
      // horizon; refuse horizons that cannot drain the instance. A pod's
      // safe horizon is bounded by the global one (fewer flows, same
      // releases), so this covers fabric runs too.
      if (options.max_rounds < instance.SafeHorizon()) {
        return Fail(error, "max_rounds " + std::to_string(options.max_rounds) +
                               " is below the safe horizon " +
                               std::to_string(instance.SafeHorizon()));
      }
      c->run.max_rounds = options.max_rounds;
    }
    // A file path, or inline:<script> with ';' separating lines.
    const std::string scenario = options.ParamOr("scenario", "");
    if (scenario.empty()) return true;
    if (!LoadScenarioParam(scenario, script, &perr)) {
      return Fail(error, "scenario: " + perr);
    }
    c->run.scenario = script;
    return true;
  }

  std::shared_ptr<const PolicyEntry> entry_;
};

std::string FabricDescription(const char* kind, const std::string& policy) {
  return "sharded fabric: partitions the instance across K pods and "
         "simulates each with the " +
         std::string(kind) + policy +
         " policy (merged metrics, cross-shard CCT, load imbalance)";
}

}  // namespace

void RegisterPolicySolvers(SolverRegistry& registry) {
  const auto add = [&registry](std::string name, std::string description,
                               const PolicyFactory& make, Family family) {
    // One probe policy per name, here rather than per solve.
    const bool unit = make(1, {})->RequiresUnitDemands();
    auto entry = std::make_shared<const PolicyEntry>(PolicyEntry{
        std::move(name), std::move(description), make, family, unit});
    registry.Register(entry->name, entry->description, [entry] {
      return std::make_unique<PolicySolver>(entry);
    });
  };
  const std::vector<std::string> coflow_names = AllCoflowPolicyNames();
  for (const std::string& p : AllPolicyNames()) {
    const PolicyFactory make = [p](std::uint64_t seed,
                                   const MatchingOptions& matching) {
      return MakePolicy(p, seed, matching);
    };
    add("online." + p,
        "round-by-round simulation of the online policy (paper §5.2.1)", make,
        kOnline);
    if (std::count(coflow_names.begin(), coflow_names.end(), p) == 0) {
      add("fabric." + p, FabricDescription("flow-level ", p), make, kFabric);
    }
  }
  for (const std::string& p : coflow_names) {
    const PolicyFactory make = [p](std::uint64_t seed,
                                   const MatchingOptions& matching) {
      return MakeCoflowPolicy(p, seed, matching);
    };
    add("coflow." + p,
        "round-by-round simulation of the coflow-aware policy (CCT "
        "diagnostics; untagged flows count as singletons)",
        make, kCoflow);
    add("fabric." + p, FabricDescription("coflow-aware ", p), make, kFabric);
  }
}

}  // namespace internal
}  // namespace flowsched
