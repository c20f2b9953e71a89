#include "campaign/campaign_runner.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/json.h"
#include "util/stopwatch.h"

namespace flowsched {
namespace {

namespace fs = std::filesystem;

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

// Write-to-.tmp + rename: the destination either holds the complete record
// or does not exist; a kill between the two files leaves outcome.json
// without meta.json, which resume treats as "never ran".
bool WriteFileAtomic(const std::string& path, const std::string& content,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Fail(error, "cannot write " + tmp);
    out << content;
    out.flush();
    if (!out) return Fail(error, "short write to " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Fail(error, "rename " + tmp + " -> " + path + ": " + ec.message());
  }
  return true;
}

std::int64_t UnixMillisNow() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// meta.json of a task that finished at end_ms after wall_seconds.
std::string MetaJson(const CampaignSpec& spec, const CampaignGrid& grid,
                     const SweepTask& task, const Provenance& prov,
                     std::int64_t end_ms, double wall_seconds,
                     const TaskOutcome& outcome) {
  const SweepCell& cell = grid.plan.cells[task.cell];
  const std::int64_t start_ms =
      end_ms - static_cast<std::int64_t>(wall_seconds * 1e3);
  std::ostringstream out;
  out << "{\n";
  out << "  " << JsonStr("campaign", spec.name) << ",\n";
  out << "  " << JsonStr("grid", grid.spec.name) << ",\n";
  out << "  " << JsonStr("task_id", grid.task_ids[task.index]) << ",\n";
  out << "  \"task_index\": " << task.index << ",\n";
  out << "  \"cell_index\": " << task.cell << ",\n";
  out << "  " << JsonStr("solver", cell.solver) << ",\n";
  out << "  " << JsonStr("instance", task.instance_spec) << ",\n";
  if (cell.scenario) {
    out << "  " << JsonStr("scenario", *cell.scenario) << ",\n";
  }
  out << "  \"instance_seed\": " << task.instance_seed << ",\n";
  out << "  \"trial\": " << task.trial << ",\n";
  out << "  \"solver_seed\": " << task.solver_seed << ",\n";
  out << "  " << JsonStr("spec_hash", HashHex(grid.task_hashes[task.index]))
      << ",\n";
  WriteProvenanceJson(out, prov, 2);
  out << ",\n";
  out << "  \"start_unix_ms\": " << start_ms << ",\n";
  out << "  \"end_unix_ms\": " << end_ms << ",\n";
  out << "  \"wall_seconds\": " << JsonNum(wall_seconds) << ",\n";
  out << "  \"exit_code\": " << (outcome.ok ? 0 : 1) << ",\n";
  out << "  " << JsonStr("status", outcome.ok ? "ok" : "failed");
  if (!outcome.ok) {
    out << ",\n  " << JsonStr("error", outcome.error);
  }
  out << "\n}\n";
  return out.str();
}

// The durable record of one finished task: outcome.json first, then
// meta.json, the commit marker.
bool WriteTaskRecord(const std::string& dir, const SweepCell& cell,
                     const SweepTask& task, const TaskOutcome& outcome,
                     const std::string& meta_json, std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Fail(error, "cannot create " + dir + ": " + ec.message());
  std::ostringstream record;
  WriteTaskJsonLine(record, cell, task, outcome);
  return WriteFileAtomic(dir + "/outcome.json", record.str(), error) &&
         WriteFileAtomic(dir + "/meta.json", meta_json, error);
}

}  // namespace

std::string CampaignTaskDir(const std::string& out_root,
                            const std::string& task_id) {
  return out_root + "/runs/" + task_id;
}

bool CampaignTaskUpToDate(const std::string& dir,
                          const std::string& expected_hash_hex,
                          const Provenance& prov) {
  std::string text;
  if (!ReadFile(dir + "/meta.json", text)) return false;
  JsonValue meta;
  if (!ParseJson(text, meta, nullptr)) return false;
  if (meta.GetString("status") != "ok") return false;
  if (meta.GetString("spec_hash") != expected_hash_hex) return false;
  const JsonValue* p = meta.Find("provenance");
  if (p == nullptr) return false;
  if (p->GetString("git_sha") != prov.git_sha) return false;
  if (p->GetString("compiler_flags") != prov.compiler_flags) return false;
  std::error_code ec;
  return fs::exists(dir + "/outcome.json", ec) && !ec;
}

bool ReadTaskOutcome(const std::string& dir, TaskOutcome& outcome,
                     std::string* error) {
  outcome = TaskOutcome{};
  std::string text;
  const std::string path = dir + "/outcome.json";
  if (!ReadFile(path, text)) {
    return Fail(error, "cannot read " + path);
  }
  JsonValue doc;
  std::string jerr;
  if (!ParseJson(text, doc, &jerr)) {
    return Fail(error, path + ": " + jerr);
  }
  outcome = TaskOutcomeFromJson(doc);
  return true;
}

bool RunCampaign(const CampaignSpec& spec, const CampaignPlan& plan,
                 const std::string& out_root,
                 const CampaignRunOptions& options,
                 CampaignRunSummary& summary, std::string* error) {
  summary = CampaignRunSummary{};
  summary.total = plan.total_tasks;
  const SolverRegistry& registry = options.registry != nullptr
                                       ? *options.registry
                                       : SolverRegistry::Global();
  const Provenance prov = CollectProvenance();
  Stopwatch campaign_timer;

  std::error_code ec;
  fs::create_directories(out_root + "/runs", ec);
  if (ec) {
    return Fail(error,
                "cannot create " + out_root + "/runs: " + ec.message());
  }

  std::atomic<bool> stop{false};  // --fail-fast latch.
  for (const CampaignGrid& grid : plan.grids) {
    summary.statuses.emplace_back(grid.plan.tasks.size(),
                                  CampaignTaskStatus::kPending);
  }
  // Grids run in order; tasks within a grid run concurrently. Campaigns
  // are few-large-grids, so cross-grid overlap buys little and per-grid
  // instance lifetime stays simple.
  for (std::size_t g = 0; g < plan.grids.size(); ++g) {
    const CampaignGrid& grid = plan.grids[g];
    auto& statuses = summary.statuses[g];

    // Resume pass: decide per task before materializing anything.
    std::vector<char> run_mask(grid.plan.tasks.size(), 1);
    for (std::size_t t = 0; t < grid.plan.tasks.size(); ++t) {
      if (options.resume &&
          CampaignTaskUpToDate(
              CampaignTaskDir(out_root, grid.task_ids[t]),
              HashHex(grid.task_hashes[t]), prov)) {
        statuses[t] = CampaignTaskStatus::kSkipped;
        run_mask[t] = 0;
        ++summary.skipped;
      }
    }

    ExecuteSweepPlan(
        grid.spec, grid.plan, registry, options.jobs, run_mask, &stop,
        [&](const SweepTask& task, const TaskOutcome& outcome,
            double wall) {
          const std::string& task_id = grid.task_ids[task.index];
          std::string write_error;
          const bool wrote = WriteTaskRecord(
              CampaignTaskDir(out_root, task_id), grid.plan.cells[task.cell],
              task, outcome,
              MetaJson(spec, grid, task, prov, UnixMillisNow(), wall, outcome),
              &write_error);
          const bool ok = outcome.ok && wrote;
          statuses[task.index] =
              ok ? CampaignTaskStatus::kOk : CampaignTaskStatus::kFailed;
          if (!ok && options.fail_fast) {
            stop.store(true, std::memory_order_relaxed);
          }
          ++summary.ran;
          ok ? ++summary.ok : ++summary.failed;
          if (options.log != nullptr) {
            char wall_buf[32];
            std::snprintf(wall_buf, sizeof(wall_buf), " (%.2fs)", wall);
            *options.log << "[" << (summary.ran + summary.skipped) << "/"
                         << summary.total << "] "
                         << (ok ? "ok    " : "FAIL  ") << task_id
                         << wall_buf;
            if (!ok) {
              *options.log << "  " << (wrote ? outcome.error : write_error);
            }
            *options.log << std::endl;
          }
        });
    if (stop.load(std::memory_order_relaxed)) break;
  }

  // Whatever is still pending was left behind by fail-fast (whole
  // unreached grids included).
  for (auto& statuses : summary.statuses) {
    for (auto& s : statuses) {
      if (s != CampaignTaskStatus::kPending) continue;
      s = CampaignTaskStatus::kNotRun;
      ++summary.not_run;
    }
  }
  summary.wall_seconds = campaign_timer.ElapsedSeconds();
  return true;
}

}  // namespace flowsched
