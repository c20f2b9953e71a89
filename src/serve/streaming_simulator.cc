#include "serve/streaming_simulator.h"

#include <algorithm>
#include <ostream>

#include "util/check.h"
#include "util/json.h"

namespace flowsched {
namespace {

void AppendBool(std::string& out, const char* key, bool v) {
  AppendJsonKey(out, key);
  out += v ? "true" : "false";
}

}  // namespace

std::string StreamingSummary::ToJson() const {
  std::string out = "{";
  AppendJsonNumber(out, "flows", static_cast<double>(flows));
  AppendJsonNumber(out, "arrived", static_cast<double>(arrived));
  AppendJsonNumber(out, "rounds", static_cast<double>(rounds));
  AppendJsonNumber(out, "total_response", total_response);
  AppendJsonNumber(out, "mean_response", mean_response);
  AppendJsonNumber(out, "max_response", max_response);
  AppendJsonNumber(out, "stddev_response", stddev_response);
  AppendJsonNumber(out, "p50_response", p50_response);
  AppendJsonNumber(out, "p95_response", p95_response);
  AppendJsonNumber(out, "p99_response", p99_response);
  AppendJsonNumber(out, "peak_backlog", peak_backlog);
  AppendJsonNumber(out, "avg_port_utilization", avg_port_utilization);
  AppendJsonNumber(out, "coflows", static_cast<double>(coflows));
  AppendJsonNumber(out, "total_cct", total_cct);
  AppendJsonNumber(out, "mean_cct", mean_cct);
  AppendJsonNumber(out, "max_cct", max_cct);
  AppendJsonNumber(out, "downtime_rounds",
                   static_cast<double>(downtime_rounds));
  AppendJsonNumber(out, "migrated_flows",
                   static_cast<double>(migrated_flows));
  AppendBool(out, "truncated", truncated);
  AppendBool(out, "source_error", source_error);
  if (!error.empty()) {
    AppendJsonKey(out, "error");
    out += '"' + JsonEscape(error) + '"';
  }
  out += '}';
  return out;
}

StreamingSimulator::StreamingSimulator(const SwitchSpec& sw,
                                       SchedulingPolicy& policy,
                                       const StreamingOptions& options)
    : sw_(sw),
      policy_(policy),
      options_(options),
      engine_(sw, policy, options.validate) {
  source_error_ = !engine_.BindScenario(options_.scenario, nullptr, &error_);
}

void StreamingSimulator::TrackGroup(const Flow& f) {
  if (f.coflow == kNoCoflow) return;
  const auto [it, inserted] =
      groups_.try_emplace(f.coflow, GroupState{0, f.release});
  ++it->second.live;
  it->second.arrival = std::min(it->second.arrival, f.release);
}

bool StreamingSimulator::StopRequested() const {
  // The round in flight always completes, so the summary is a consistent
  // cut of the stream.
  return options_.stop != nullptr && *options_.stop != 0;
}

bool StreamingSimulator::AdmitArrivals(Round t,
                                       std::span<const Flow> arrivals) {
  for (const Flow& a : arrivals) {
    if (a.demand != 1 && policy_.RequiresUnitDemands()) {
      source_error_ = true;
      error_ = "policy " + std::string(policy_.name()) +
               " requires unit demands, got a flow with demand " +
               std::to_string(a.demand);
      return false;
    }
    Flow& f = engine_.Admit(t, a);
    f.id = next_id_++;
    TrackGroup(f);
  }
  return true;
}

void StreamingSimulator::Complete(Round t, std::span<const Flow> backlog,
                                  std::span<const int> slots) {
  if (options_.match_out != nullptr && !slots.empty()) {
    std::ostream& out = *options_.match_out;
    out << "MATCH " << t;
    for (int i : slots) out << ' ' << backlog[i].id;
    out << '\n';
  }
  completed_untagged_.clear();
  drained_groups_.clear();
  for (int i : slots) {
    const Flow& f = backlog[i];
    const auto response = static_cast<double>(t + 1 - f.release);
    metrics_.RecordResponse(response);
    ++completed_;
    if (wire_mode_) live_ids_.erase(f.id);
    if (f.coflow == kNoCoflow) {
      // Untagged flows are singleton groups (model/coflow.h), so their CCT
      // is their response.
      completed_untagged_.push_back(f.id);
      metrics_.RecordCct(response);
      ++coflows_completed_;
    } else {
      const auto it = groups_.find(f.coflow);
      FS_CHECK(it != groups_.end());
      if (--it->second.live == 0) {
        metrics_.RecordCct(static_cast<double>(t + 1 - it->second.arrival));
        drained_groups_.push_back(f.coflow);
        ++coflows_completed_;
        groups_.erase(it);
      }
    }
  }
  if (!completed_untagged_.empty() || !drained_groups_.empty()) {
    policy_.RetireFlows(completed_untagged_, drained_groups_);
  }
}

void StreamingSimulator::EndRound(Round t) {
  if (options_.stats_out == nullptr || options_.stats_every <= 0) return;
  if ((t + 1) % options_.stats_every != 0) return;
  *options_.stats_out << metrics_.StatsLine(t, engine_.backlog().size())
                      << '\n';
}

StreamingSummary StreamingSimulator::Run(StreamingFlowSource& source) {
  if (source_error_) return Summarize();  // Scenario bind failed in ctor.
  round_ = engine_.Run(source, options_.max_rounds, *this, &error_);
  source_error_ = source_error_ || !source.ok();
  return Summarize();
}

bool StreamingSimulator::Inject(const Flow& flow, std::string* error) {
  wire_mode_ = true;
  if (flow.src < 0 || flow.src >= sw_.num_inputs() || flow.dst < 0 ||
      flow.dst >= sw_.num_outputs()) {
    if (error != nullptr) *error = "flow ports out of range for the switch";
    return false;
  }
  if (flow.demand < 1 || flow.demand > sw_.Kappa(flow)) {
    if (error != nullptr) {
      *error = "flow demand must be in [1, min port capacity]";
    }
    return false;
  }
  if (flow.demand != 1 && policy_.RequiresUnitDemands()) {
    if (error != nullptr) {
      *error = "policy " + std::string(policy_.name()) +
               " requires unit demands";
    }
    return false;
  }
  if (!live_ids_.insert(flow.id).second) {
    if (error != nullptr) {
      *error = "flow id " + std::to_string(flow.id) +
               " is already live (ids must be unique among live flows)";
    }
    return false;
  }
  TrackGroup(engine_.Admit(round_, flow));
  return true;
}

void StreamingSimulator::Step() {
  if (!engine_.backlog().empty()) engine_.Step(round_, *this);
  EndRound(round_);
  ++round_;
}

bool StreamingSimulator::ForceFault(PortId h, std::string* error) {
  wire_mode_ = true;
  return engine_.scenario().ForceHostDown(h, error);
}

bool StreamingSimulator::ForceRecover(PortId h, std::string* error) {
  wire_mode_ = true;
  return engine_.scenario().ForceHostUp(h, error);
}

std::string StreamingSimulator::StatsLine() {
  return metrics_.StatsLine(round_, engine_.backlog().size());
}

StreamingSummary StreamingSimulator::Summarize() const {
  StreamingSummary s;
  s.flows = completed_;
  s.arrived = engine_.admitted();
  s.rounds = round_;
  const RunningStats& r = metrics_.response().total();
  s.total_response = r.sum();
  s.mean_response = r.mean();
  s.max_response = r.max();
  s.stddev_response = r.stddev();
  s.p50_response = metrics_.response().p50();
  s.p95_response = metrics_.response().p95();
  s.p99_response = metrics_.response().p99();
  s.peak_backlog = engine_.peak_backlog();
  s.avg_port_utilization = engine_.PortUtilization(round_);
  s.coflows = coflows_completed_;
  const RunningStats& c = metrics_.cct().total();
  s.total_cct = c.sum();
  s.mean_cct = c.mean();
  s.max_cct = c.max();
  s.downtime_rounds = engine_.downtime_rounds();
  s.migrated_flows = engine_.scenario().migrated_flows();
  s.truncated = !engine_.backlog().empty();
  s.source_error = source_error_;
  s.error = error_;
  return s;
}

}  // namespace flowsched
