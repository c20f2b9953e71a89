#include "core/online/round_engine.h"

#include <algorithm>

#include "util/check.h"

namespace flowsched {

InstanceStreamSource::InstanceStreamSource(const Instance& instance)
    : instance_(&instance) {
  order_.reserve(instance.num_flows());
  for (const Flow& e : instance.flows()) order_.push_back(e.id);
  std::stable_sort(order_.begin(), order_.end(), [&](FlowId a, FlowId b) {
    return instance.flow(a).release < instance.flow(b).release;
  });
  releases_.reserve(order_.size());
  for (FlowId id : order_) releases_.push_back(instance.flow(id).release);
}

void InstanceStreamSource::ArrivalsInto(Round t, std::vector<Flow>* out) {
  while (next_ < order_.size() && releases_[next_] <= t) {
    out->push_back(instance_->flow(order_[next_]));
    ++next_;
  }
}

Round InstanceStreamSource::NextArrivalRound(Round t) {
  return next_ < order_.size() ? std::max(t, releases_[next_]) : t;
}

RoundEngine::RoundEngine(const SwitchSpec& sw, SchedulingPolicy& policy,
                         bool validate, SimulationContext* context)
    : sw_(sw),
      policy_(policy),
      validate_(validate),
      ctx_(context != nullptr ? *context : own_context_) {
  ctx_.Clear();
}

bool RoundEngine::BindScenario(const ScenarioScript* script,
                               const std::vector<ScenarioOp>* ops,
                               std::string* error) {
  std::string bind_error;
  const bool bound =
      ops != nullptr ? scenario_.BindOps(*ops, sw_, &bind_error)
                     : scenario_.Bind(script != nullptr ? *script
                                                        : ScenarioScript(),
                                      sw_, &bind_error);
  if (!bound) *error = "scenario: " + bind_error;
  return bound;
}

Flow& RoundEngine::Admit(Round t, const Flow& flow) {
  ctx_.backlog.push_back(flow);
  Flow& f = ctx_.backlog.back();
  f.release = t;
  // The remap point is the admission order itself, so every front-end
  // draws the same migration coins (scenario/scenario.h).
  if (scenario_.has_migrations()) scenario_.RemapArrival(t, &f.src, &f.dst);
  ++admitted_;
  admitted_demand_ += f.demand;
  return f;
}

void RoundEngine::ValidateSelection(const SwitchSpec& sw) {
  const std::vector<PendingFlow>& pending = ctx_.pending;
  ctx_.in_load.assign(sw.num_inputs(), 0);
  ctx_.out_load.assign(sw.num_outputs(), 0);
  ctx_.used.assign(pending.size(), 0);
  for (int i : ctx_.picked) {
    FS_CHECK_MSG(i >= 0 && i < static_cast<int>(pending.size()),
                 "policy returned an out-of-range backlog index " << i);
    FS_CHECK_MSG(!ctx_.used[i],
                 "policy selected backlog index " << i << " twice");
    ctx_.used[i] = 1;
    ctx_.in_load[pending[i].src] += pending[i].demand;
    ctx_.out_load[pending[i].dst] += pending[i].demand;
  }
  for (PortId p = 0; p < sw.num_inputs(); ++p) {
    FS_CHECK_MSG(ctx_.in_load[p] <= sw.input_capacity(p),
                 "policy overloaded input port " << p);
  }
  for (PortId q = 0; q < sw.num_outputs(); ++q) {
    FS_CHECK_MSG(ctx_.out_load[q] <= sw.output_capacity(q),
                 "policy overloaded output port " << q);
  }
}

bool RoundEngine::Step(Round t, RoundFrontEnd& sink) {
  scenario_.AdvanceTo(t);
  ctx_.pending.clear();
  const bool mapped = scenario_.degraded();
  if (mapped) {
    // Flows touching a dead port stay backlogged and are withheld from the
    // policy; pending_map remembers each survivor's backlog slot.
    ctx_.pending_map.clear();
    for (std::size_t i = 0; i < ctx_.backlog.size(); ++i) {
      const Flow& f = ctx_.backlog[i];
      if (scenario_.IsBlocked(f.src, f.dst)) continue;
      ctx_.pending.push_back(
          PendingFlow{f.id, f.src, f.dst, f.demand, f.release, f.coflow});
      ctx_.pending_map.push_back(static_cast<int>(i));
    }
  } else {
    for (const Flow& f : ctx_.backlog) {
      ctx_.pending.push_back(
          PendingFlow{f.id, f.src, f.dst, f.demand, f.release, f.coflow});
    }
  }
  peak_backlog_ =
      std::max(peak_backlog_, static_cast<int>(ctx_.backlog.size()));
  if (scenario_.AnyPortDown()) ++downtime_rounds_;
  if (ctx_.pending.empty()) return false;
  // Selection and validation see the round's *effective* capacities.
  const SwitchSpec& round_sw = mapped ? scenario_.view() : sw_;
  policy_.SelectFlowsInto(round_sw, t, ctx_.pending, &ctx_.picked);
  if (validate_) ValidateSelection(round_sw);
  // From here on `picked` holds backlog slots, not pending indices.
  if (mapped) {
    for (int& i : ctx_.picked) i = ctx_.pending_map[i];
  }
  sink.Complete(t, ctx_.backlog, ctx_.picked);
  // Stable in-place compaction of the surviving backlog.
  ctx_.remove.assign(ctx_.backlog.size(), 0);
  for (int i : ctx_.picked) ctx_.remove[i] = 1;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ctx_.backlog.size(); ++i) {
    if (!ctx_.remove[i]) {
      if (kept != i) ctx_.backlog[kept] = ctx_.backlog[i];
      ++kept;
    }
  }
  ctx_.backlog.resize(kept);
  return true;
}

Round RoundEngine::Run(StreamingFlowSource& source, Round max_rounds,
                       RoundFrontEnd& front, std::string* error) {
  Round t = 0;
  for (; max_rounds < 0 || t < max_rounds; ++t) {
    if (front.StopRequested()) break;
    ctx_.arrivals.clear();
    source.ArrivalsInto(t, &ctx_.arrivals);
    if (!source.ok()) {
      *error = source.error();
      break;
    }
    if (!front.AdmitArrivals(t, ctx_.arrivals)) break;
    if (ctx_.backlog.empty()) {
      if (source.Exhausted(t + 1)) break;
      // Skip the idle gap up to the next release, never past the round cap
      // (the next Step's AdvanceTo catches up on skipped scenario ops).
      Round next = source.NextArrivalRound(t + 1);
      if (max_rounds >= 0) next = std::min(next, max_rounds);
      if (next > t + 1) t = next - 1;  // ++t lands on `next`.
      continue;
    }
    const bool served = Step(t, front);
    front.EndRound(t);
    if (!served && source.Exhausted(t + 1) && !scenario_.HasOpAfter(t)) {
      *error = "scenario leaves " + std::to_string(ctx_.backlog.size()) +
               " flows on dead ports with no recovery event after round " +
               std::to_string(t);
      break;
    }
  }
  return t;
}

double RoundEngine::PortUtilization(Round rounds) const {
  if (rounds <= 0) return 0.0;
  Capacity in_bw = 0;
  Capacity out_bw = 0;
  for (Capacity c : sw_.input_capacities()) in_bw += c;
  for (Capacity c : sw_.output_capacities()) out_bw += c;
  const auto demand = static_cast<double>(admitted_demand_);
  const auto r = static_cast<double>(rounds);
  return 0.5 * (demand / (static_cast<double>(in_bw) * r) +
                demand / (static_cast<double>(out_bw) * r));
}

}  // namespace flowsched
