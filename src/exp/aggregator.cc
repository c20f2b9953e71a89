#include "exp/aggregator.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/provenance.h"

namespace flowsched {
namespace {

// Emits {"mean": ..., "stddev": ..., "min": ..., "max": ..., "ci95": ...}.
void WriteStatsObject(std::ostream& out, const RunningStats& s) {
  out << "{\"mean\": " << JsonNum(s.mean()) << ", \"stddev\": "
      << JsonNum(s.stddev()) << ", \"min\": " << JsonNum(s.min())
      << ", \"max\": " << JsonNum(s.max()) << ", \"ci95\": "
      << JsonNum(Ci95HalfWidth(s)) << "}";
}

void WriteCsvStats(std::ostream& out, const RunningStats& s) {
  out << JsonNum(s.mean()) << "," << JsonNum(s.stddev()) << ","
      << JsonNum(s.min()) << "," << JsonNum(s.max()) << ","
      << JsonNum(Ci95HalfWidth(s));
}

// Whether a cell's report lists a group's fields.
bool Reported(const CellAggregate& c, OutcomeGroup group,
              bool include_timing) {
  switch (group) {
    case OutcomeGroup::kCoflow: return c.num_coflows > 0;
    case OutcomeGroup::kFabric: return c.shards > 0;
    case OutcomeGroup::kScenario: return c.scenario_n > 0;
    case OutcomeGroup::kBound: return c.lower_bound.count() > 0;
    case OutcomeGroup::kTiming: return include_timing;
    default: return true;
  }
}

}  // namespace

double Ci95HalfWidth(const RunningStats& s) {
  if (s.count() < 2) return 0.0;
  return 1.96 * s.stddev() / std::sqrt(static_cast<double>(s.count()));
}

Aggregator::Aggregator(const SweepPlan& plan) : plan_(plan) {
  cells_.resize(plan.cells.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].cell = static_cast<int>(i);
  }
}

void Aggregator::Add(const SweepTask& task, const TaskOutcome& outcome) {
  FS_CHECK_LT(static_cast<std::size_t>(task.cell), cells_.size());
  CellAggregate& cell = cells_[task.cell];
  if (!outcome.ok) {
    ++cell.failures;
    return;
  }
  ++cell.n;
  if (outcome.has_scenario) ++cell.scenario_n;
  for (const OutcomeField& f : OutcomeFields()) {
    if (!CarriesGroup(outcome, f.group)) continue;
    switch (f.fold.kind) {
      case CellFold::kStats:
        (cell.*f.fold.stats).Add(f.Get(outcome));
        break;
      case CellFold::kSum:
        cell.*f.fold.counter += outcome.*f.member.as_int;
        break;
      case CellFold::kMax:
        cell.*f.fold.counter =
            std::max(cell.*f.fold.counter, outcome.*f.member.as_int);
        break;
      case CellFold::kNone:
        break;
    }
  }
}

void Aggregator::AddRun(const SweepRun& run) {
  FS_CHECK_EQ(run.plan.tasks.size(), run.outcomes.size());
  for (const SweepTask& task : run.plan.tasks) {
    Add(task, run.outcomes[task.index]);
  }
}

void Aggregator::WriteJson(std::ostream& out, const SweepSpec& spec, int jobs,
                           double wall_seconds, bool include_timing) const {
  out << "{\n";
  out << "  " << JsonStr("sweep", spec.name) << ",\n";
  WriteProvenanceJson(out, CollectProvenance(), 2);
  out << ",\n";
  out << "  \"spec\": {\n";
  out << "    \"solvers\": [";
  for (std::size_t i = 0; i < spec.solvers.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << JsonEscape(spec.solvers[i]) << "\"";
  }
  out << "],\n    \"instances\": [";
  for (std::size_t i = 0; i < spec.instances.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << JsonEscape(spec.instances[i])
        << "\"";
  }
  out << "],\n    \"trials\": " << spec.trials
      << ",\n    \"base_seed\": " << spec.base_seed << "\n  },\n";
  if (include_timing) {
    out << "  \"jobs\": " << jobs << ",\n";
    out << "  \"wall_seconds\": " << JsonNum(wall_seconds) << ",\n";
  }

  int total_n = 0, total_failures = 0;
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellAggregate& c = cells_[i];
    const SweepCell& key = plan_.cells[c.cell];
    total_n += c.n;
    total_failures += c.failures;
    out << "    {" << JsonStr("solver", key.solver) << ", "
        << JsonStr("instance", key.instance_family);
    if (key.load) out << ", \"load\": " << JsonNum(*key.load);
    if (key.ports) out << ", \"ports\": " << *key.ports;
    if (key.rounds) out << ", \"rounds\": " << *key.rounds;
    if (key.shards) out << ", \"shards\": " << *key.shards;
    if (key.dist) out << ", " << JsonStr("dist", *key.dist);
    if (key.scenario) out << ", " << JsonStr("scenario", *key.scenario);
    out << ", \"n\": " << c.n << ", \"failures\": " << c.failures;
    // The always-carried counters head the cell, even when n == 0.
    for (const OutcomeField& f : OutcomeFields()) {
      if (f.group == OutcomeGroup::kAlways && f.IsCounter()) {
        out << ", \"" << f.CellKey() << "\": " << c.*f.fold.counter;
      }
    }
    if (c.n > 0) {
      for (const OutcomeField& f : OutcomeFields()) {
        if (f.fold.kind == CellFold::kNone ||
            (f.group == OutcomeGroup::kAlways && f.IsCounter()) ||
            !Reported(c, f.group, include_timing)) {
          continue;
        }
        out << ",\n     \"" << f.CellKey() << "\": ";
        if (f.IsCounter()) {
          out << c.*f.fold.counter;
        } else {
          WriteStatsObject(out, c.*f.fold.stats);
        }
      }
    }
    out << "}" << (i + 1 < cells_.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"totals\": {\"cells\": " << cells_.size()
      << ", \"tasks_ok\": " << total_n
      << ", \"tasks_failed\": " << total_failures << "}\n";
  out << "}\n";
}

void Aggregator::WriteCsv(std::ostream& out, bool include_timing) const {
  // Counters, then five statistics columns per distribution; coflow,
  // fabric and robustness columns are always present (zeros for cells that
  // carry none) so the header is independent of which solvers ran. The
  // lower-bound columns appear only when some cell carries a bound, so
  // grids without an offline solver keep their header. Timing contributes
  // only its means.
  const auto fields = OutcomeFields();
  const auto timing = [](const OutcomeField& f) {
    return f.group == OutcomeGroup::kTiming;
  };
  const bool any_bound =
      std::any_of(cells_.begin(), cells_.end(), [](const CellAggregate& c) {
        return Reported(c, OutcomeGroup::kBound, false);
      });
  const auto stats_column = [&](const OutcomeField& f) {
    return f.fold.kind == CellFold::kStats && !timing(f) &&
           (any_bound || f.group != OutcomeGroup::kBound);
  };
  out << "solver,instance,load,ports,rounds,shards,dist,scenario,n,failures";
  for (const OutcomeField& f : fields) {
    if (f.IsCounter()) out << "," << f.CellKey();
  }
  for (const OutcomeField& f : fields) {
    if (!stats_column(f)) continue;
    const char* m = f.CellKey();
    out << "," << m << "_mean," << m << "_stddev," << m << "_min," << m
        << "_max," << m << "_ci95";
  }
  if (include_timing) {
    for (const OutcomeField& f : fields) {
      if (timing(f)) out << "," << f.CellKey() << "_mean";
    }
  }
  out << "\n";
  for (const CellAggregate& c : cells_) {
    const SweepCell& key = plan_.cells[c.cell];
    // Instance specs and inline scenario scripts contain commas, semicolons,
    // and potentially quotes; CsvEscapeField quotes and doubles as needed —
    // bare surrounding quotes used to shear columns on embedded '"'.
    out << CsvEscapeField(key.solver) << ","
        << CsvEscapeField(key.instance_family) << ",";
    if (key.load) out << JsonNum(*key.load);
    out << ",";
    if (key.ports) out << *key.ports;
    out << ",";
    if (key.rounds) out << *key.rounds;
    out << ",";
    if (key.shards) out << *key.shards;
    out << ",";
    if (key.dist) out << CsvEscapeField(*key.dist);
    out << ",";
    if (key.scenario) out << CsvEscapeField(*key.scenario);
    out << "," << c.n << "," << c.failures;
    for (const OutcomeField& f : fields) {
      if (f.IsCounter()) out << "," << c.*f.fold.counter;
    }
    for (const OutcomeField& f : fields) {
      if (!stats_column(f)) continue;
      out << ",";
      WriteCsvStats(out, c.*f.fold.stats);
    }
    if (include_timing) {
      for (const OutcomeField& f : fields) {
        if (timing(f)) out << "," << JsonNum((c.*f.fold.stats).mean());
      }
    }
    out << "\n";
  }
}

}  // namespace flowsched
