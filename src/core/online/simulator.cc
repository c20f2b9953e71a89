#include "core/online/simulator.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/online/round_engine.h"
#include "util/check.h"

namespace flowsched {
namespace {

// Exposes an ArrivalProcess to the engine. The lower-bound adversaries
// adapt to what the policy left behind, so they read the engine's backlog.
class ArrivalProcessSource final : public StreamingFlowSource {
 public:
  ArrivalProcessSource(const SwitchSpec& sw, ArrivalProcess& arrivals,
                       const std::vector<Flow>& backlog)
      : sw_(sw), arrivals_(arrivals), backlog_(backlog) {}

  const SwitchSpec& sw() const override { return sw_; }
  void ArrivalsInto(Round t, std::vector<Flow>* out) override {
    arrivals_.ArrivalsInto(t, backlog_, out);
  }
  bool Exhausted(Round t) override { return arrivals_.Exhausted(t); }
  Round NextArrivalRound(Round t) override {
    return arrivals_.NextArrivalRound(t);
  }

 private:
  const SwitchSpec& sw_;
  ArrivalProcess& arrivals_;
  const std::vector<Flow>& backlog_;
};

// The batch sink: numbers arrivals densely into the realized instance and
// records the round each flow completes in.
class Recorder final : public RoundFrontEnd {
 public:
  Recorder(RoundEngine& engine, SimulationResult& result, bool record_backlog)
      : engine_(engine), result_(result), record_backlog_(record_backlog) {}

  bool AdmitArrivals(Round t, std::span<const Flow> arrivals) override {
    for (const Flow& a : arrivals) {
      Flow& f = engine_.Admit(t, a);
      f.id = result_.realized.AddFlow(f.src, f.dst, f.demand, f.release,
                                      f.coflow);
      engine_.context().assigned_round.push_back(kUnassigned);
    }
    return true;
  }

  void Complete(Round t, std::span<const Flow> backlog,
                std::span<const int> slots) override {
    for (int i : slots) engine_.context().assigned_round[backlog[i].id] = t;
  }

  void EndRound(Round /*t*/) override {
    if (record_backlog_) {
      result_.backlog_trace.push_back(
          static_cast<int>(engine_.backlog().size()));
    }
  }

 private:
  RoundEngine& engine_;
  SimulationResult& result_;
  const bool record_backlog_;
};

SimulationResult RunToDrain(RoundEngine& engine, StreamingFlowSource& source,
                            const SimulationOptions& options) {
  SimulationResult result;
  result.realized = Instance(source.sw(), {});
  const bool has_scenario =
      options.scenario_ops != nullptr || options.scenario != nullptr;
  if (has_scenario && !engine.BindScenario(options.scenario,
                                           options.scenario_ops,
                                           &result.error)) {
    result.truncated = true;
    return result;
  }
  Recorder recorder(engine, result, options.record_backlog);
  result.rounds = engine.Run(source, std::max<Round>(options.max_rounds, 0),
                             recorder, &result.error);
  result.peak_backlog = engine.peak_backlog();
  result.downtime_rounds = static_cast<Round>(engine.downtime_rounds());
  result.migrated_flows = engine.scenario().migrated_flows();
  const std::size_t pending = engine.backlog().size();
  if (result.error.empty() && pending > 0) {
    // Without a scenario a livelocked policy is a bug; a daemon-facing
    // scenario run must degrade gracefully and truncates instead.
    FS_CHECK_MSG(has_scenario, "simulation hit max_rounds with "
                                   << pending << " flows still pending");
    result.error = "scenario run hit max_rounds=" +
                   std::to_string(options.max_rounds) + " with " +
                   std::to_string(pending) + " flows still pending";
  }
  if (!result.error.empty()) {
    // Partial run: the realized instance (and downtime count) stand, but
    // there is no complete schedule to validate or score.
    result.truncated = true;
    return result;
  }
  const std::vector<Round>& assigned = engine.context().assigned_round;
  result.schedule = Schedule(result.realized.num_flows());
  for (FlowId e = 0; e < result.realized.num_flows(); ++e) {
    FS_CHECK_NE(assigned[e], kUnassigned);
    result.schedule.Assign(e, assigned[e]);
  }
  if (options.validate) {
    FS_CHECK(!result.schedule.ValidationError(result.realized).has_value());
  }
  result.metrics = ComputeMetrics(result.realized, result.schedule);
  result.avg_port_utilization = engine.PortUtilization(result.rounds);
  return result;
}

}  // namespace

SimulationResult Simulate(const SwitchSpec& sw, ArrivalProcess& arrivals,
                          SchedulingPolicy& policy,
                          const SimulationOptions& options,
                          SimulationContext* context) {
  RoundEngine engine(sw, policy, options.validate, context);
  ArrivalProcessSource source(sw, arrivals, engine.backlog());
  return RunToDrain(engine, source, options);
}

SimulationResult Simulate(const Instance& instance, SchedulingPolicy& policy,
                          const SimulationOptions& options,
                          SimulationContext* context) {
  FS_CHECK(!instance.ValidationError().has_value());
  RoundEngine engine(instance.sw(), policy, options.validate, context);
  InstanceStreamSource source(instance);
  return RunToDrain(engine, source, options);
}

Schedule MapRealizedSchedule(const Instance& instance,
                             const Schedule& realized) {
  std::vector<FlowId> order(instance.num_flows());
  for (FlowId e = 0; e < instance.num_flows(); ++e) order[e] = e;
  std::stable_sort(order.begin(), order.end(), [&](FlowId a, FlowId b) {
    return instance.flow(a).release < instance.flow(b).release;
  });
  Schedule schedule(instance.num_flows());
  for (int k = 0; k < instance.num_flows(); ++k) {
    schedule.Assign(order[k], realized.round_of(k));
  }
  return schedule;
}

}  // namespace flowsched
