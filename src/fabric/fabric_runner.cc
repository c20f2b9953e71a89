#include "fabric/fabric_runner.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/online/simulator.h"
#include "exp/thread_pool.h"
#include "util/check.h"
#include "util/rng.h"

namespace flowsched {
namespace {

// One pod's simulation, self-contained: fresh policy (derived seed), fresh
// context. Writes only into this shard's slot, so shards are trivially
// parallel and the merge order alone fixes the output.
struct ShardRun {
  Schedule schedule;  // Shard-local flow ids.
  Round rounds = 0;
  int peak_backlog = 0;
  double avg_port_utilization = 0.0;
  Round downtime_rounds = 0;
  bool truncated = false;
  std::string error;
  bool ran = false;
};

ShardRun SimulateShard(const Instance& shard_instance, int shard,
                       const FabricRunOptions& options,
                       const std::vector<ScenarioOp>* scenario_ops) {
  ShardRun run;
  if (shard_instance.num_flows() == 0) return run;
  const std::uint64_t seed = Rng::DeriveSeed(options.seed,
                                             static_cast<std::uint64_t>(shard));
  const std::unique_ptr<SchedulingPolicy> policy = options.make_policy(seed);
  SimulationOptions sim;
  if (options.max_rounds > 0) sim.max_rounds = options.max_rounds;
  sim.validate = options.validate;
  sim.scenario_ops = scenario_ops;
  SimulationContext context;
  const SimulationResult r = Simulate(shard_instance, *policy, sim, &context);
  // A truncated scenario run carries no schedule to map (the fabric result
  // is discarded before the merge loop consumes it).
  if (!r.truncated) {
    run.schedule = MapRealizedSchedule(shard_instance, r.schedule);
  }
  run.rounds = r.rounds;
  run.peak_backlog = r.peak_backlog;
  run.avg_port_utilization = r.avg_port_utilization;
  run.downtime_rounds = r.downtime_rounds;
  run.truncated = r.truncated;
  run.error = r.error;
  run.ran = true;
  return run;
}

}  // namespace

bool ProjectScenarioOps(const ScenarioScript& script,
                        const FabricAssignment& fa, int shard,
                        std::vector<ScenarioOp>* ops, std::string* error) {
  FS_CHECK_GE(shard, 0);
  FS_CHECK_LT(shard, fa.shards);
  ops->clear();
  const int num_hosts = static_cast<int>(fa.shard_of_host.size());
  const std::vector<PortId>& in_map = fa.shard_input_host[shard];
  const std::vector<PortId>& out_map = fa.shard_output_host[shard];
  // Every local port whose global host satisfies `affects` gets the op; the
  // within-round order (inputs ascending, then outputs) is a pure function
  // of the maps, so projections are deterministic across jobs values.
  const auto expand = [&](Round t, Capacity cap, const auto& affects) {
    for (std::size_t p = 0; p < in_map.size(); ++p) {
      if (in_map[p] >= 0 && affects(in_map[p])) {
        ops->push_back({t, /*input_side=*/true, static_cast<PortId>(p), cap});
      }
    }
    for (std::size_t q = 0; q < out_map.size(); ++q) {
      if (out_map[q] >= 0 && affects(out_map[q])) {
        ops->push_back({t, /*input_side=*/false, static_cast<PortId>(q), cap});
      }
    }
  };
  for (const ScenarioEvent& e : script.events()) {
    Capacity cap = 0;
    switch (e.kind) {
      case ScenarioEvent::Kind::kPortDown:
      case ScenarioEvent::Kind::kPodDown:
        cap = 0;
        break;
      case ScenarioEvent::Kind::kPortUp:
      case ScenarioEvent::Kind::kPodUp:
        cap = kScenarioRestore;
        break;
      case ScenarioEvent::Kind::kSetCapacity:
        cap = e.capacity;
        break;
      case ScenarioEvent::Kind::kMigrate:
        // Consumed before partitioning (ApplyScenarioMigrations); there is
        // no per-shard capacity op to project.
        continue;
    }
    const bool pod_event = e.kind == ScenarioEvent::Kind::kPodDown ||
                           e.kind == ScenarioEvent::Kind::kPodUp;
    if (pod_event) {
      // The script's pods must be the fabric's pods — a PODS header written
      // for another topology would silently hit the wrong hosts.
      if (script.pods() != fa.shards) {
        *error = "line " + std::to_string(e.line) + ": scenario declares " +
                 std::to_string(script.pods()) + " pods but the fabric has " +
                 std::to_string(fa.shards) + " shards";
        return false;
      }
      const int pod = e.target;
      expand(e.t, cap, [&](PortId g) { return fa.shard_of_host[g] == pod; });
    } else {
      if (e.target >= num_hosts) {
        *error = "line " + std::to_string(e.line) + ": host " +
                 std::to_string(e.target) + " out of range (fabric has " +
                 std::to_string(num_hosts) + " hosts)";
        return false;
      }
      expand(e.t, cap, [&](PortId g) { return g == e.target; });
    }
  }
  return true;
}

FabricResult RunFabric(const Instance& instance, const FabricAssignment& fa,
                       const FabricRunOptions& options) {
  FS_CHECK_EQ(static_cast<std::size_t>(instance.num_flows()),
              fa.shard_of_flow.size());
  FS_CHECK_MSG(options.make_policy != nullptr,
               "FabricRunOptions::make_policy is required");
  const int shards = fa.shards;
  std::vector<ShardRun> runs(shards);

  FabricResult result;
  // Projection happens up front (cheap, serial) so a bad script surfaces
  // before any shard simulates.
  std::vector<std::vector<ScenarioOp>> shard_ops;
  const bool has_scenario =
      options.scenario != nullptr && !options.scenario->empty();
  if (has_scenario) {
    shard_ops.resize(shards);
    for (int s = 0; s < shards; ++s) {
      std::string perr;
      if (!ProjectScenarioOps(*options.scenario, fa, s, &shard_ops[s],
                              &perr)) {
        result.schedule = Schedule(instance.num_flows());
        result.truncated = true;
        result.error = "scenario: " + perr;
        result.shard_reports.resize(shards);
        return result;
      }
    }
  }

  const int jobs = std::clamp(options.jobs, 1, shards);
  if (jobs > 1) {
    ThreadPool pool(jobs);
    for (int s = 0; s < shards; ++s) {
      pool.Submit([&, s] {
        runs[s] = SimulateShard(fa.shard_instances[s], s, options,
                                has_scenario ? &shard_ops[s] : nullptr);
      });
    }
    pool.Wait();
  } else {
    for (int s = 0; s < shards; ++s) {
      runs[s] = SimulateShard(fa.shard_instances[s], s, options,
                              has_scenario ? &shard_ops[s] : nullptr);
    }
  }

  result.schedule = Schedule(instance.num_flows());
  result.shard_reports.resize(shards);
  int busy_shards = 0;
  for (int s = 0; s < shards; ++s) {
    const ShardRun& run = runs[s];
    FabricShardReport& report = result.shard_reports[s];
    report.shard = s;
    report.num_flows = fa.shard_instances[s].num_flows();
    report.demand = fa.shard_demand[s];
    report.rounds = run.rounds;
    report.peak_backlog = run.peak_backlog;
    report.downtime_rounds = run.downtime_rounds;
    result.rounds = std::max(result.rounds, run.rounds);
    result.peak_backlog = std::max(result.peak_backlog, run.peak_backlog);
    result.downtime_rounds =
        std::max(result.downtime_rounds, run.downtime_rounds);
    if (run.truncated && !result.truncated) {
      // First truncated shard in index order — deterministic for any jobs.
      result.truncated = true;
      result.error = "pod " + std::to_string(s) + ": " + run.error;
    }
    if (run.ran) {
      result.avg_port_utilization += run.avg_port_utilization;
      ++busy_shards;
    }
  }
  if (busy_shards > 0) result.avg_port_utilization /= busy_shards;
  if (result.truncated) return result;

  for (FlowId e = 0; e < instance.num_flows(); ++e) {
    const int s = fa.shard_of_flow[e];
    result.schedule.Assign(e, runs[s].schedule.round_of(fa.local_flow_id[e]));
  }
  return result;
}

}  // namespace flowsched
