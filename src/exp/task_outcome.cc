#include "exp/task_outcome.h"

namespace flowsched {
namespace {

using T = TaskOutcome;
using C = CellAggregate;
using enum OutcomeGroup;

constexpr CellFold Stats(RunningStats C::*stats) {
  return {CellFold::kStats, stats, nullptr};
}
constexpr CellFold Sum(long long C::*counter) {
  return {CellFold::kSum, nullptr, counter};
}
constexpr CellFold Max(long long C::*counter) {
  return {CellFold::kMax, nullptr, counter};
}

constexpr OutcomeField kFields[] = {
    {"total_response", kAlways, &T::total_response,
     Stats(&C::total_response)},
    {"avg_response", kAlways, &T::avg_response, Stats(&C::avg_response)},
    {"p50_response", kAlways, &T::p50_response, Stats(&C::p50_response)},
    {"p95_response", kAlways, &T::p95_response, Stats(&C::p95_response)},
    {"p99_response", kAlways, &T::p99_response, Stats(&C::p99_response)},
    {"max_response", kAlways, &T::max_response, Stats(&C::max_response)},
    {"stddev_response", kAlways, &T::stddev_response},
    {"makespan", kAlways, &T::makespan, Stats(&C::makespan)},
    {"num_flows", kAlways, &T::num_flows, Sum(&C::num_flows)},
    {"rounds", kAlways, &T::rounds},
    {"peak_backlog", kAlways, &T::peak_backlog, Stats(&C::peak_backlog)},
    {"num_coflows", kCoflow, &T::num_coflows, Sum(&C::num_coflows)},
    {"avg_cct", kCoflow, &T::avg_cct, Stats(&C::avg_cct)},
    {"p95_cct", kCoflow, &T::p95_cct, Stats(&C::p95_cct)},
    {"max_cct", kCoflow, &T::max_cct, Stats(&C::max_cct)},
    {"avg_slowdown", kCoflow, &T::avg_slowdown, Stats(&C::avg_slowdown)},
    {"shards", kFabric, &T::shards, Max(&C::shards), "fabric_shards"},
    {"load_imbalance", kFabric, &T::load_imbalance,
     Stats(&C::load_imbalance)},
    {"cross_shard_flows", kFabric, &T::cross_shard_flows,
     Stats(&C::cross_shard_flows)},
    {"split_coflows", kFabric, &T::split_coflows, Stats(&C::split_coflows)},
    {"scenario_events", kScenario, &T::scenario_events,
     Max(&C::scenario_events)},
    {"downtime_rounds", kScenario, &T::downtime_rounds,
     Stats(&C::downtime_rounds)},
    {"backlog_surge", kScenario, &T::backlog_surge, Stats(&C::backlog_surge)},
    {"recovery_drain_rounds", kScenario, &T::recovery_drain_rounds,
     Stats(&C::recovery_drain_rounds)},
    {"response_inflation", kScenario, &T::response_inflation,
     Stats(&C::response_inflation)},
    {"migrated_flows", kScenario, &T::migrated_flows,
     Stats(&C::migrated_flows)},
    {"lower_bound", kBound, &T::lower_bound, Stats(&C::lower_bound)},
    {"approx_ratio", kBound, &T::approx_ratio, Stats(&C::approx_ratio)},
    {"max_window_overload", kBound, &T::max_window_overload,
     Stats(&C::max_window_overload)},
    {"max_violation", kBound, &T::max_violation, Stats(&C::max_violation)},
    {"wall_seconds", kTiming, &T::wall_seconds, Stats(&C::wall_seconds)},
    {"rounds_per_sec", kTiming, &T::rounds_per_sec,
     Stats(&C::rounds_per_sec)},
};

// The key of a group's first row: a solver report or a record carries the
// group exactly when it carries this key.
const char* GroupMarker(OutcomeGroup group) {
  for (const OutcomeField& f : kFields) {
    if (f.group == group) return f.key;
  }
  return nullptr;
}

bool IsOptional(OutcomeGroup group) {
  return group != kAlways && group != kTiming;
}

}  // namespace

std::span<const OutcomeField> OutcomeFields() { return kFields; }

bool CarriesGroup(const TaskOutcome& outcome, OutcomeGroup group) {
  switch (group) {
    case kCoflow: return outcome.num_coflows > 0;
    case kFabric: return outcome.shards > 0;
    case kScenario: return outcome.has_scenario;
    case kBound: return outcome.has_lower_bound;
    default: return true;
  }
}

TaskOutcome OutcomeFromSolveReport(const SolveReport& report) {
  TaskOutcome o;
  o.ok = report.ok;
  o.error = report.error;
  o.wall_seconds = report.wall_seconds;
  if (!report.ok) return o;
  const auto& diagnostics = report.diagnostics;
  o.has_scenario = diagnostics.contains(GroupMarker(kScenario));
  o.has_lower_bound = report.lower_bound.has_value();
  // A group's diagnostics are copied when the solver emitted the group:
  // its marker diagnostic, or for kBound a proven lower bound.
  const auto emitted = [&](OutcomeGroup group) {
    if (group == kBound) return o.has_lower_bound;
    return !IsOptional(group) || diagnostics.contains(GroupMarker(group));
  };
  for (const OutcomeField& f : kFields) {
    if (f.group == kTiming || !emitted(f.group)) continue;
    const auto it = diagnostics.find(f.key);
    if (it == diagnostics.end()) continue;
    if (f.member.as_int != nullptr) {
      o.*f.member.as_int = static_cast<long long>(it->second);
    } else {
      o.*f.member.as_double = it->second;
    }
  }
  if (o.has_lower_bound) {
    o.lower_bound = *report.lower_bound;
    o.approx_ratio = report.ApproxRatio();
  }
  const ScheduleMetrics& m = report.metrics;
  o.total_response = m.total_response;
  o.avg_response = m.avg_response;
  o.p50_response = m.p50_response;
  o.p95_response = m.p95_response;
  o.p99_response = m.p99_response;
  o.max_response = m.max_response;
  o.stddev_response = m.stddev_response;
  o.makespan = m.makespan;
  o.num_flows = static_cast<long long>(m.response.size());
  const auto rounds = diagnostics.find("rounds_simulated");
  o.rounds = rounds == diagnostics.end()
                 ? 0
                 : static_cast<long long>(rounds->second);
  if (o.rounds > 0 && o.wall_seconds > 0.0) {
    o.rounds_per_sec = static_cast<double>(o.rounds) / o.wall_seconds;
  }
  return o;
}

void WriteTaskJsonLine(std::ostream& out, const SweepCell& cell,
                       const SweepTask& task, const TaskOutcome& outcome) {
  out << "{\"task\": " << task.index << ", \"cell\": " << cell.index << ", "
      << JsonStr("solver", cell.solver) << ", "
      << JsonStr("instance", task.instance_spec);
  if (cell.dist) out << ", " << JsonStr("dist", *cell.dist);
  if (cell.scenario) out << ", " << JsonStr("scenario", *cell.scenario);
  out << ", \"instance_seed\": " << task.instance_seed
      << ", \"trial\": " << task.trial
      << ", \"solver_seed\": " << task.solver_seed
      << ", \"ok\": " << (outcome.ok ? "true" : "false");
  if (outcome.ok) {
    for (const OutcomeField& f : kFields) {
      if (!CarriesGroup(outcome, f.group)) continue;
      out << ", \"" << f.key << "\": ";
      if (f.member.as_int != nullptr) {
        out << outcome.*f.member.as_int;
      } else {
        out << JsonNum(outcome.*f.member.as_double);
      }
    }
  } else {
    out << ", " << JsonStr("error", outcome.error);
  }
  out << "}\n";
}

TaskOutcome TaskOutcomeFromJson(const JsonValue& doc) {
  TaskOutcome o;
  o.ok = doc.GetBool("ok");
  if (!o.ok) {
    o.error = doc.GetString("error", "unknown failure");
    return o;
  }
  for (const OutcomeField& f : kFields) {
    if (IsOptional(f.group) && doc.Find(GroupMarker(f.group)) == nullptr) {
      continue;
    }
    if (f.member.as_int != nullptr) {
      o.*f.member.as_int = doc.GetInt(f.key);
    } else {
      o.*f.member.as_double = doc.GetNumber(f.key);
    }
  }
  o.has_scenario = doc.Find(GroupMarker(kScenario)) != nullptr;
  o.has_lower_bound = doc.Find(GroupMarker(kBound)) != nullptr;
  return o;
}

}  // namespace flowsched
