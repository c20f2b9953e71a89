#include "fabric/fabric_runner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "api/instance_source.h"
#include "api/registry.h"
#include "coflow/coflow_metrics.h"
#include "coflow/coflow_policies.h"
#include "model/coflow.h"

namespace flowsched {
namespace {

Instance LoadedCoflowInstance() {
  std::string error;
  auto instance = LoadInstance(
      "coflow:ports=32,load=1.0,rounds=40,width=6,skew=0.7,seed=5", &error);
  EXPECT_TRUE(instance.has_value()) << error;
  return *instance;
}

TEST(FabricRunnerTest, MergedScheduleAssignsEveryFlowAndValidatesUnderK) {
  const Instance instance = LoadedCoflowInstance();
  for (const FabricPartition partition :
       {FabricPartition::kBlock, FabricPartition::kHash}) {
    const FabricAssignment fa = PartitionInstance(instance, 4, partition);
    FabricRunOptions options;
    options.make_policy = [](std::uint64_t seed) {
      return MakeCoflowPolicy("sebf", seed);
    };
    const FabricResult result = RunFabric(instance, fa, options);
    EXPECT_TRUE(result.schedule.AllAssigned());
    // Pods replicate remote egress: K x output capacity suffices, exact
    // capacity generally does not (that is the whole trade).
    EXPECT_EQ(result.schedule.ValidationError(instance,
                                              CapacityAllowance::Factor(4)),
              std::nullopt);
    EXPECT_GT(result.rounds, 0);
    ASSERT_EQ(result.shard_reports.size(), 4u);
    Round max_rounds = 0;
    for (const FabricShardReport& report : result.shard_reports) {
      max_rounds = std::max(max_rounds, report.rounds);
    }
    EXPECT_EQ(result.rounds, max_rounds);
  }
}

TEST(FabricRunnerTest, ShardJobsDoNotChangeTheResult) {
  const Instance instance = LoadedCoflowInstance();
  const FabricAssignment fa =
      PartitionInstance(instance, 8, FabricPartition::kHash);
  FabricRunOptions serial;
  serial.make_policy = [](std::uint64_t seed) {
    return MakeCoflowPolicy("sebf", seed);
  };
  serial.seed = 42;
  FabricRunOptions parallel = serial;
  parallel.jobs = 8;
  const FabricResult a = RunFabric(instance, fa, serial);
  const FabricResult b = RunFabric(instance, fa, parallel);
  EXPECT_EQ(a.schedule.assignments(), b.schedule.assignments());
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.peak_backlog, b.peak_backlog);
  EXPECT_DOUBLE_EQ(a.avg_port_utilization, b.avg_port_utilization);
}

// Hand-built split-coflow CCT check on a 2-pod fabric (block partition of
// 4 hosts: {0,1} -> pod 0, {2,3} -> pod 1).
//
// Coflow 1 has one member per pod. Pod 0 is otherwise empty, so its
// member (released at 0) runs in round 0 — completion 1. Pod 1's member
// is released at round 1 and contends for output port 3 with an
// earlier-arrived coflow 0 (two flows 3 -> 3, one per round under unit
// capacity): FIFO-of-coflows serves coflow 0 through rounds 0-1, so
// coflow 1's pod-1 member lands in round 2. The coflow's release is its
// earliest member release (0), so its fabric CCT is the max over member
// pods: round 2 + 1 - 0 = 3, which ComputeCoflowMetrics reads off the
// merged schedule directly.
TEST(FabricRunnerTest, SplitCoflowCctIsTheMaxOverMemberShards) {
  Instance instance(SwitchSpec::Uniform(4, 4, 1), {});
  instance.AddFlow(0, 1, 1, 0, /*coflow=*/1);  // Pod 0 member, round 0.
  instance.AddFlow(3, 3, 1, 0, /*coflow=*/0);  // Pod 1 competitors on
  instance.AddFlow(3, 3, 1, 0, /*coflow=*/0);  // output port 3.
  instance.AddFlow(2, 3, 1, 1, /*coflow=*/1);  // Pod 1 member, delayed.

  const FabricAssignment fa =
      PartitionInstance(instance, 2, FabricPartition::kBlock);
  EXPECT_EQ(fa.split_coflows, 1);
  ASSERT_EQ(fa.shard_of_flow, (std::vector<int>{0, 1, 1, 1}));

  FabricRunOptions options;
  // FIFO-of-coflows: earliest group first.
  options.make_policy = [](std::uint64_t seed) {
    return MakeCoflowPolicy("fifo", seed);
  };
  const FabricResult result = RunFabric(instance, fa, options);
  ASSERT_TRUE(result.schedule.AllAssigned());

  // Pod 0: coflow 1's member runs immediately.
  EXPECT_EQ(result.schedule.round_of(0), 0);
  // Pod 1: coflow 0 (arrival 0) drains through rounds 0-1; coflow 1's
  // member (arrival 1) gets port 3 in round 2.
  EXPECT_EQ(result.schedule.round_of(3), 2);

  const CoflowSet coflows(instance);
  const CoflowMetrics cm =
      ComputeCoflowMetrics(instance, coflows, result.schedule);
  // Group order: tag 0 first, then tag 1. Split coflow 1: completion is
  // the max over pods — round 2 + 1 - release 0 = 3.
  ASSERT_EQ(cm.cct.size(), 2u);
  EXPECT_DOUBLE_EQ(cm.cct[1], 3.0);
  // Intact competitor: members at rounds 0 and 1 -> CCT 2.
  EXPECT_DOUBLE_EQ(cm.cct[0], 2.0);
}

TEST(FabricRunnerTest, SingleShardMatchesTheUnshardedSolver) {
  // A 1-pod fabric is the same switch with relabeled-but-identical ports,
  // simulated by the same deterministic policy: fabric.sebf at shards=1
  // must reproduce coflow.sebf's metrics exactly.
  const Instance instance = LoadedCoflowInstance();
  SolveOptions fabric_options;
  fabric_options.params["shards"] = "1";
  const SolveReport fabric = SolverRegistry::Global().Solve(
      "fabric.sebf", instance, fabric_options);
  const SolveReport coflow =
      SolverRegistry::Global().Solve("coflow.sebf", instance);
  ASSERT_TRUE(fabric.ok) << fabric.error;
  ASSERT_TRUE(coflow.ok) << coflow.error;
  EXPECT_EQ(fabric.metrics.total_response, coflow.metrics.total_response);
  EXPECT_EQ(fabric.metrics.max_response, coflow.metrics.max_response);
  EXPECT_EQ(fabric.metrics.makespan, coflow.metrics.makespan);
  EXPECT_EQ(fabric.diagnostics.at("total_cct"),
            coflow.diagnostics.at("total_cct"));
}

TEST(FabricSolverTest, ResolvesTopologyFromTheSourceStampAndParams) {
  std::string error;
  const auto stamped = LoadInstance(
      "fabric:shards=4,partition=hash,"
      "coflow:ports=32,load=1.0,rounds=30,width=6,skew=0.7,seed=5",
      &error);
  ASSERT_TRUE(stamped.has_value()) << error;

  // Stamp alone suffices.
  const SolveReport from_stamp =
      SolverRegistry::Global().Solve("fabric.sebf", *stamped);
  ASSERT_TRUE(from_stamp.ok) << from_stamp.error;
  EXPECT_EQ(from_stamp.diagnostics.at("shards"), 4);
  EXPECT_EQ(from_stamp.allowance.factor, 4.0);

  // Params override the stamp.
  SolveOptions options;
  options.params["shards"] = "2";
  options.params["partition"] = "block";
  const SolveReport overridden =
      SolverRegistry::Global().Solve("fabric.sebf", *stamped, options);
  ASSERT_TRUE(overridden.ok) << overridden.error;
  EXPECT_EQ(overridden.diagnostics.at("shards"), 2);

  // No stamp, no params: a loud error, not a silent default.
  const Instance bare = LoadedCoflowInstance();
  const SolveReport missing =
      SolverRegistry::Global().Solve("fabric.sebf", bare);
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("shards"), std::string::npos) << missing.error;

  // An explicit non-positive shards param is rejected, never silently
  // replaced by the stamp (the param documents itself as the override).
  SolveOptions zero;
  zero.params["shards"] = "0";
  const SolveReport rejected =
      SolverRegistry::Global().Solve("fabric.sebf", *stamped, zero);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find(">= 1"), std::string::npos)
      << rejected.error;
}

TEST(FabricSolverTest, RegistersCoflowAwareAndFlowLevelPolicies) {
  const SolverRegistry& registry = SolverRegistry::Global();
  for (const char* name :
       {"fabric.sebf", "fabric.maxweight", "fabric.fifo", "fabric.srpt",
        "fabric.maxcard", "fabric.minrtime", "fabric.random",
        "fabric.hybrid"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  // Collision rule: the coflow-aware variant wins the flat name.
  EXPECT_NE(registry.Description("fabric.fifo").find("coflow-aware"),
            std::string::npos);
  EXPECT_NE(registry.Description("fabric.srpt").find("flow-level"),
            std::string::npos);
}

}  // namespace
}  // namespace flowsched
