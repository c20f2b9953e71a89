// RoundEngine: the one implementation of a simulated round (paper §5.2.1).
//
// Round t: arrivals released by t join the backlog (Admit); the policy picks
// a capacity-feasible subset of the flows it may see (per-port queues are
// open: any backlog flow, not just the oldest), those flows complete within
// the round, and the backlog is compacted (Step). Run() pulls arrivals
// from a source, fast-forwards idle gaps and ends the run. Batch Simulate()
// and StreamingSimulator implement RoundFrontEnd and differ only in what a
// completed round does and how a run ends, so a finite input realizes the
// same schedule on both by construction.
//
// The engine owns the scenario overlay: a stepped round first applies the
// ops due by then; while a port side is degraded, flows touching a dead
// side stay backlogged and hidden from the policy, and selection and
// validation see the effective switch. Every per-round buffer lives in a
// SimulationContext, so steady-state rounds allocate nothing.
#ifndef FLOWSCHED_CORE_ONLINE_ROUND_ENGINE_H_
#define FLOWSCHED_CORE_ONLINE_ROUND_ENGINE_H_

#include <span>
#include <string>
#include <vector>

#include "core/online/policy.h"
#include "core/online/simulation_context.h"
#include "model/instance.h"
#include "scenario/scenario.h"

namespace flowsched {

// Pull-based arrivals, one round at a time, so a stream never materializes.
// A source buffers at most a bounded window (generator sources: the next
// nonempty round drawn ahead; the trace source: one lookahead row), which
// Exhausted() and NextArrivalRound() may fill and ArrivalsInto() emits
// verbatim. Generator sources draw in the batch generators' per-round
// order (workload/ Append*Round), so a stream realizes the same flows as
// the materialized instance.
class StreamingFlowSource {
 public:
  virtual ~StreamingFlowSource() = default;
  // The switch the stream runs on; fixed for the source's lifetime.
  virtual const SwitchSpec& sw() const = 0;
  // Appends every not-yet-emitted flow released at rounds <= t to *out;
  // called with strictly increasing t. The engine assigns ids and clamps
  // releases to the admitting round.
  virtual void ArrivalsInto(Round t, std::vector<Flow>* out) = 0;
  // True when no arrival remains at any round >= t.
  virtual bool Exhausted(Round t) = 0;
  // Earliest round >= t that carries an arrival; t when none is known.
  virtual Round NextArrivalRound(Round t) = 0;
  // Sources that can fail mid-stream (trace parse errors, out-of-order
  // rows) report here; the engine stops pulling when ok() turns false.
  virtual bool ok() const { return true; }
  virtual std::string error() const { return std::string(); }
};

// Replays `instance` (borrowed; must outlive the source) in release order,
// stable by flow id: batch Simulate(Instance) and the streaming checks.
class InstanceStreamSource : public StreamingFlowSource {
 public:
  explicit InstanceStreamSource(const Instance& instance);

  const SwitchSpec& sw() const override { return instance_->sw(); }
  void ArrivalsInto(Round t, std::vector<Flow>* out) override;
  bool Exhausted(Round /*t*/) override { return next_ >= order_.size(); }
  Round NextArrivalRound(Round t) override;

 private:
  const Instance* instance_;
  std::vector<FlowId> order_;    // Flow ids sorted by (release, id).
  std::vector<Round> releases_;  // Aligned with order_, non-decreasing.
  std::size_t next_ = 0;
};

// A front-end's hooks into the engine, each called at most once per round —
// never per flow.
class RoundFrontEnd {
 public:
  // The completion sink: `slots` are the backlog indices picked in round t,
  // in selection order, into `backlog` as it was before compaction.
  virtual void Complete(Round t, std::span<const Flow> backlog,
                        std::span<const int> slots) = 0;
  // Admits round t's arrivals, in order, through RoundEngine::Admit and
  // stamps their ids. False ends the run (the front-end records why).
  virtual bool AdmitArrivals(Round t, std::span<const Flow> arrivals) = 0;
  // Checked before round t's arrivals are pulled; true ends the run.
  virtual bool StopRequested() const { return false; }
  // After every stepped round, once the backlog is compacted.
  virtual void EndRound(Round /*t*/) {}
};

class RoundEngine {
 public:
  // `context` (borrowed; null for an internal one) is cleared here, so a
  // context can be handed from run to run as-is.
  RoundEngine(const SwitchSpec& sw, SchedulingPolicy& policy, bool validate,
              SimulationContext* context = nullptr);
  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  // Binds the fault overlay: pre-projected `ops` win over `script`, and
  // with neither an empty script binds (wire FAULT/RECOVER still work).
  // Unbound, the overlay is inert. False with *error on a bind failure.
  bool BindScenario(const ScenarioScript* script,
                    const std::vector<ScenarioOp>* ops, std::string* error);
  ScenarioRuntime& scenario() { return scenario_; }
  const ScenarioRuntime& scenario() const { return scenario_; }

  // Admits one arrival in round t: its release is clamped to t and MIGRATE
  // rules re-home its ports. Returns its backlog slot, where the caller
  // stamps the id.
  Flow& Admit(Round t, const Flow& flow);

  // Runs round t over a nonempty backlog: overlay, selection, validation
  // (when enabled), the sink, compaction. False when every backlogged flow
  // touches a dead port, so the round idled without calling the sink.
  bool Step(Round t, RoundFrontEnd& sink);

  // Drives rounds 0, 1, ... from `source` until it is exhausted and the
  // backlog drains, or until round `max_rounds` (< 0: no cap), the front-end
  // stops it, the source fails, or the backlog is stranded (no scenario op
  // left could revive a flow). Returns the round the loop stopped at; the
  // last two cases also set *error.
  Round Run(StreamingFlowSource& source, Round max_rounds,
            RoundFrontEnd& front, std::string* error);

  const std::vector<Flow>& backlog() const { return ctx_.backlog; }
  SimulationContext& context() { return ctx_; }
  long long admitted() const { return admitted_; }
  int peak_backlog() const { return peak_backlog_; }
  // Stepped rounds during which >= 1 port side was down.
  long long downtime_rounds() const { return downtime_rounds_; }
  // Admitted demand over the port bandwidth of `rounds` rounds, averaged
  // over the two sides (1.0 = every port saturated every round).
  double PortUtilization(Round rounds) const;

 private:
  // Audits ctx_.picked against `sw`: in-range, no duplicates, no port
  // overloads (FS_CHECK; three O(backlog + ports) scans).
  void ValidateSelection(const SwitchSpec& sw);

  const SwitchSpec& sw_;
  SchedulingPolicy& policy_;
  const bool validate_;
  SimulationContext own_context_;
  SimulationContext& ctx_;
  ScenarioRuntime scenario_;
  long long admitted_ = 0;
  Capacity admitted_demand_ = 0;
  int peak_backlog_ = 0;
  long long downtime_rounds_ = 0;
};

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_ROUND_ENGINE_H_
