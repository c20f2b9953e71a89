#include "campaign/campaign_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

#include "campaign/campaign_plan.h"
#include "campaign/campaign_report.h"
#include "campaign/campaign_spec.h"
#include "exp/aggregator.h"
#include "util/json.h"
#include "util/provenance.h"

namespace flowsched {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// In-place value edit inside a meta.json: replaces the text between the
// quotes following `"key": "` — enough surgery to simulate a run produced
// by a different spec / commit / build.
void TamperJsonString(const fs::path& path, const std::string& key,
                      const std::string& new_value) {
  std::string text = ReadFile(path);
  const std::string needle = "\"" + key + "\": \"";
  const auto at = text.find(needle);
  ASSERT_NE(at, std::string::npos) << key << " not found in " << path;
  const auto start = at + needle.size();
  const auto end = text.find('"', start);
  ASSERT_NE(end, std::string::npos);
  text = text.substr(0, start) + new_value + text.substr(end);
  WriteFile(path, text);
}

class CampaignRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("flowsched_campaign_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    std::string error;
    const std::string text =
        "name=unittest\n"
        "[grid]\n"
        "name=flow\n"
        "solvers=online.fifo,online.srpt\n"
        "instances=poisson:ports=4,load={load},rounds=20,seed={seed}\n"
        "loads=0.7,1.0\n"
        "seeds=1..2\n"
        "param=validate=1\n";
    ASSERT_TRUE(ParseCampaignSpec(text, spec_, &error)) << error;
    ASSERT_TRUE(ExpandCampaign(spec_, SolverRegistry::Global(), plan_, &error))
        << error;
    ASSERT_EQ(plan_.total_tasks, 8);
  }

  void TearDown() override { fs::remove_all(root_); }

  CampaignRunSummary Run(bool resume) {
    CampaignRunOptions options;
    options.jobs = 2;
    options.resume = resume;
    CampaignRunSummary summary;
    std::string error;
    EXPECT_TRUE(
        RunCampaign(spec_, plan_, root_.string(), options, summary, &error))
        << error;
    return summary;
  }

  std::string Aggregate() {
    CampaignCollectSummary summary;
    std::string error;
    EXPECT_TRUE(
        CollectCampaign(spec_, plan_, root_.string(), summary, &error))
        << error;
    EXPECT_EQ(summary.failed, 0);
    EXPECT_EQ(summary.missing, 0);
    return ReadFile(root_ / "aggregate" / "flow.json");
  }

  fs::path TaskMeta(int task_index) {
    return fs::path(CampaignTaskDir(root_.string(),
                                    plan_.grids[0].task_ids[task_index])) /
           "meta.json";
  }

  fs::path root_;
  CampaignSpec spec_;
  CampaignPlan plan_;
};

TEST_F(CampaignRunnerTest, RunsEveryTaskAndWritesDurableRecords) {
  const CampaignRunSummary summary = Run(/*resume=*/false);
  EXPECT_EQ(summary.total, 8);
  EXPECT_EQ(summary.ok, 8);
  EXPECT_EQ(summary.failed, 0);
  EXPECT_EQ(summary.skipped, 0);
  const Provenance prov = CollectProvenance();
  for (int t = 0; t < 8; ++t) {
    const std::string dir =
        CampaignTaskDir(root_.string(), plan_.grids[0].task_ids[t]);
    EXPECT_TRUE(fs::exists(fs::path(dir) / "outcome.json")) << dir;
    EXPECT_TRUE(fs::exists(fs::path(dir) / "meta.json")) << dir;
    EXPECT_TRUE(CampaignTaskUpToDate(
        dir, HashHex(plan_.grids[0].task_hashes[t]), prov))
        << dir;
    TaskOutcome outcome;
    std::string error;
    ASSERT_TRUE(ReadTaskOutcome(dir, outcome, &error)) << error;
    EXPECT_TRUE(outcome.ok);
    EXPECT_GT(outcome.num_flows, 0);
  }
}

// The acceptance criterion: a resumed campaign skips every completed task
// and its merged aggregate is byte-identical to the uninterrupted run's.
TEST_F(CampaignRunnerTest, ResumeSkipsEverythingByteIdentically) {
  Run(/*resume=*/false);
  const std::string first = Aggregate();
  const CampaignRunSummary second = Run(/*resume=*/true);
  EXPECT_EQ(second.skipped, 8);
  EXPECT_EQ(second.ran, 0);
  EXPECT_EQ(Aggregate(), first);
}

// Killed mid-campaign = some tasks have no meta.json yet. Resume re-runs
// exactly those, and the merged aggregate still matches the uninterrupted
// run byte for byte (collect reads every outcome back from disk, so both
// paths see the same serialized numbers).
TEST_F(CampaignRunnerTest, ResumeCompletesAnInterruptedRun) {
  Run(/*resume=*/false);
  const std::string uninterrupted = Aggregate();
  // Simulate the crash: tasks 2 and 5 died before their meta.json rename.
  fs::remove(TaskMeta(2));
  fs::remove(fs::path(TaskMeta(5)).parent_path() / "outcome.json");
  fs::remove(TaskMeta(5));
  const CampaignRunSummary resumed = Run(/*resume=*/true);
  EXPECT_EQ(resumed.skipped, 6);
  EXPECT_EQ(resumed.ok, 2);
  EXPECT_EQ(Aggregate(), uninterrupted);
}

TEST_F(CampaignRunnerTest, WithoutResumeEverythingReruns) {
  Run(/*resume=*/false);
  const CampaignRunSummary second = Run(/*resume=*/false);
  EXPECT_EQ(second.skipped, 0);
  EXPECT_EQ(second.ok, 8);
}

TEST_F(CampaignRunnerTest, SpecHashMismatchForcesRerun) {
  Run(/*resume=*/false);
  TamperJsonString(TaskMeta(3), "spec_hash", "deadbeefdeadbeef");
  const CampaignRunSummary second = Run(/*resume=*/true);
  EXPECT_EQ(second.skipped, 7);
  EXPECT_EQ(second.ok, 1);
}

TEST_F(CampaignRunnerTest, GitShaMismatchForcesRerun) {
  Run(/*resume=*/false);
  TamperJsonString(TaskMeta(0), "git_sha", "0000000");
  const CampaignRunSummary second = Run(/*resume=*/true);
  EXPECT_EQ(second.skipped, 7);
  EXPECT_EQ(second.ok, 1);
}

TEST_F(CampaignRunnerTest, CompilerFlagsMismatchForcesRerun) {
  Run(/*resume=*/false);
  TamperJsonString(TaskMeta(1), "compiler_flags", "-O0 -fsanitize=debugger");
  const CampaignRunSummary second = Run(/*resume=*/true);
  EXPECT_EQ(second.skipped, 7);
  EXPECT_EQ(second.ok, 1);
}

TEST_F(CampaignRunnerTest, FailedStatusForcesRerun) {
  Run(/*resume=*/false);
  TamperJsonString(TaskMeta(4), "status", "failed");
  const CampaignRunSummary second = Run(/*resume=*/true);
  EXPECT_EQ(second.skipped, 7);
  EXPECT_EQ(second.ok, 1);
}

// Editing the grid (a new axis value) changes every task hash, so nothing
// from the old directory layout is reusable.
TEST_F(CampaignRunnerTest, GridEditInvalidatesAllTasks) {
  Run(/*resume=*/false);
  CampaignSpec edited = spec_;
  edited.grids[0].loads.push_back(2.0);
  CampaignPlan edited_plan;
  std::string error;
  ASSERT_TRUE(ExpandCampaign(edited, SolverRegistry::Global(), edited_plan,
                             &error))
      << error;
  CampaignRunOptions options;
  options.jobs = 2;
  options.resume = true;
  CampaignRunSummary summary;
  ASSERT_TRUE(RunCampaign(edited, edited_plan, root_.string(), options,
                          summary, &error))
      << error;
  EXPECT_EQ(summary.skipped, 0);
  EXPECT_EQ(summary.ok, 12);
}

TEST_F(CampaignRunnerTest, UpToDateRejectsMissingDirectoryAndOutcome) {
  const Provenance prov = CollectProvenance();
  EXPECT_FALSE(CampaignTaskUpToDate((root_ / "nope").string(),
                                    "0123456789abcdef", prov));
  Run(/*resume=*/false);
  const std::string dir =
      CampaignTaskDir(root_.string(), plan_.grids[0].task_ids[6]);
  fs::remove(fs::path(dir) / "outcome.json");
  EXPECT_FALSE(CampaignTaskUpToDate(
      dir, HashHex(plan_.grids[0].task_hashes[6]), prov));
}

TEST_F(CampaignRunnerTest, FailingSolverParamIsRecordedNotFatal) {
  CampaignSpec bad = spec_;
  bad.grids[0].params["definitely_not_a_param"] = "1";
  CampaignPlan bad_plan;
  std::string error;
  ASSERT_TRUE(
      ExpandCampaign(bad, SolverRegistry::Global(), bad_plan, &error))
      << error;
  CampaignRunOptions options;
  options.jobs = 2;
  CampaignRunSummary summary;
  ASSERT_TRUE(RunCampaign(bad, bad_plan, root_.string(), options, summary,
                          &error))
      << error;
  EXPECT_EQ(summary.failed, 8);
  EXPECT_EQ(summary.ok, 0);
  // Failed tasks write their record too — and never satisfy resume.
  const std::string dir =
      CampaignTaskDir(root_.string(), bad_plan.grids[0].task_ids[0]);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "meta.json"));
  EXPECT_FALSE(CampaignTaskUpToDate(
      dir, HashHex(bad_plan.grids[0].task_hashes[0]), CollectProvenance()));
}

// Every TaskOutcome field survives outcome.json: the record is written and
// read back field by field, so a field the reader forgets shows up here (a
// lost migrated_flows once zeroed every campaign's MIGRATE column).
TEST_F(CampaignRunnerTest, OutcomeJsonRoundTripsEveryField) {
  TaskOutcome in;
  in.ok = true;
  in.total_response = 1234.5;
  in.avg_response = 6.25;
  in.p50_response = 4.5;
  in.p95_response = 22.75;
  in.p99_response = 24.125;
  in.max_response = 27.5;
  in.stddev_response = 6.0625;
  in.makespan = 55;
  in.num_flows = 288;
  in.rounds = 56;
  in.peak_backlog = 65;
  in.num_coflows = 142;
  in.avg_cct = 5.875;
  in.p95_cct = 23.5;
  in.max_cct = 28.25;
  in.avg_slowdown = 3.96875;
  in.shards = 4;
  in.load_imbalance = 1.1875;
  in.cross_shard_flows = 77;
  in.split_coflows = 9;
  in.has_scenario = true;
  in.scenario_events = 3;
  in.downtime_rounds = 12;
  in.backlog_surge = -2;
  in.recovery_drain_rounds = 31;
  in.response_inflation = 1.4375;
  in.migrated_flows = 19;
  in.has_lower_bound = true;
  in.lower_bound = 180.5;
  in.approx_ratio = 1.28125;
  in.max_window_overload = 2;
  in.max_violation = 1;
  in.wall_seconds = 0.015625;
  in.rounds_per_sec = 3584;

  const CampaignGrid& grid = plan_.grids[0];
  const SweepTask& task = grid.plan.tasks[0];
  const fs::path dir = root_ / "roundtrip";
  fs::create_directories(dir);
  std::ostringstream record;
  WriteTaskJsonLine(record, grid.plan.cells[task.cell], task, in);
  WriteFile(dir / "outcome.json", record.str());

  TaskOutcome out;
  std::string error;
  ASSERT_TRUE(ReadTaskOutcome(dir.string(), out, &error)) << error;
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.error, "");
  EXPECT_EQ(out.total_response, in.total_response);
  EXPECT_EQ(out.avg_response, in.avg_response);
  EXPECT_EQ(out.p50_response, in.p50_response);
  EXPECT_EQ(out.p95_response, in.p95_response);
  EXPECT_EQ(out.p99_response, in.p99_response);
  EXPECT_EQ(out.max_response, in.max_response);
  EXPECT_EQ(out.stddev_response, in.stddev_response);
  EXPECT_EQ(out.makespan, in.makespan);
  EXPECT_EQ(out.num_flows, in.num_flows);
  EXPECT_EQ(out.rounds, in.rounds);
  EXPECT_EQ(out.peak_backlog, in.peak_backlog);
  EXPECT_EQ(out.num_coflows, in.num_coflows);
  EXPECT_EQ(out.avg_cct, in.avg_cct);
  EXPECT_EQ(out.p95_cct, in.p95_cct);
  EXPECT_EQ(out.max_cct, in.max_cct);
  EXPECT_EQ(out.avg_slowdown, in.avg_slowdown);
  EXPECT_EQ(out.shards, in.shards);
  EXPECT_EQ(out.load_imbalance, in.load_imbalance);
  EXPECT_EQ(out.cross_shard_flows, in.cross_shard_flows);
  EXPECT_EQ(out.split_coflows, in.split_coflows);
  EXPECT_EQ(out.has_scenario, in.has_scenario);
  EXPECT_EQ(out.scenario_events, in.scenario_events);
  EXPECT_EQ(out.downtime_rounds, in.downtime_rounds);
  EXPECT_EQ(out.backlog_surge, in.backlog_surge);
  EXPECT_EQ(out.recovery_drain_rounds, in.recovery_drain_rounds);
  EXPECT_EQ(out.response_inflation, in.response_inflation);
  EXPECT_EQ(out.migrated_flows, in.migrated_flows);
  EXPECT_EQ(out.has_lower_bound, in.has_lower_bound);
  EXPECT_EQ(out.lower_bound, in.lower_bound);
  EXPECT_EQ(out.approx_ratio, in.approx_ratio);
  EXPECT_EQ(out.max_window_overload, in.max_window_overload);
  EXPECT_EQ(out.max_violation, in.max_violation);
  EXPECT_EQ(out.wall_seconds, in.wall_seconds);
  EXPECT_EQ(out.rounds_per_sec, in.rounds_per_sec);
}

// Structural JSON equality; numbers agree to the 9 significant digits the
// task records carry (the campaign aggregates records read back from disk,
// a sweep its in-memory outcomes).
void ExpectSameJson(const JsonValue& a, const JsonValue& b,
                    const std::string& path) {
  ASSERT_EQ(a.type, b.type) << path;
  switch (a.type) {
    case JsonValue::Type::kNumber: {
      const double scale = std::max(
          {1.0, std::fabs(a.number_value), std::fabs(b.number_value)});
      EXPECT_LE(std::fabs(a.number_value - b.number_value), 1e-8 * scale)
          << path << ": " << a.raw << " vs " << b.raw;
      break;
    }
    case JsonValue::Type::kString:
      EXPECT_EQ(a.string_value, b.string_value) << path;
      break;
    case JsonValue::Type::kBool:
      EXPECT_EQ(a.bool_value, b.bool_value) << path;
      break;
    case JsonValue::Type::kArray:
      ASSERT_EQ(a.items.size(), b.items.size()) << path;
      for (std::size_t i = 0; i < a.items.size(); ++i) {
        ExpectSameJson(a.items[i], b.items[i],
                       path + "[" + std::to_string(i) + "]");
      }
      break;
    case JsonValue::Type::kObject:
      ASSERT_EQ(a.members.size(), b.members.size()) << path;
      for (std::size_t i = 0; i < a.members.size(); ++i) {
        ASSERT_EQ(a.members[i].first, b.members[i].first) << path;
        ExpectSameJson(a.members[i].second, b.members[i].second,
                       path + "." + a.members[i].first);
      }
      break;
    case JsonValue::Type::kNull:
      break;
  }
}

// The sweep and the campaign run one executor and one record schema, so
// the same MIGRATE grid aggregates to the same report through either —
// migrated_flows included.
TEST_F(CampaignRunnerTest, MigrateGridAggregatesLikeTheSweep) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(
      "name=migrate\n"
      "[grid]\n"
      "name=mig\n"
      "solvers=online.srpt,coflow.sebf\n"
      "instances=poisson:ports=8,load={load},rounds=30,seed={seed}\n"
      "loads=0.8,1.0\n"
      "seeds=1..2\n"
      "scenarios=none|inline:PODS 2;MIGRATE 6 1 3 0.5\n",
      spec, &error))
      << error;
  CampaignPlan plan;
  ASSERT_TRUE(ExpandCampaign(spec, SolverRegistry::Global(), plan, &error))
      << error;

  SweepRun run;
  RunnerOptions sweep_options;
  sweep_options.jobs = 2;
  ASSERT_TRUE(RunSweep(spec.grids[0], sweep_options, run, &error)) << error;
  Aggregator agg(run.plan);
  agg.AddRun(run);
  std::ostringstream sweep_json;
  agg.WriteJson(sweep_json, spec.grids[0], /*jobs=*/0, /*wall_seconds=*/0.0,
                /*include_timing=*/false);

  CampaignRunOptions options;
  options.jobs = 2;
  CampaignRunSummary summary;
  ASSERT_TRUE(
      RunCampaign(spec, plan, root_.string(), options, summary, &error))
      << error;
  EXPECT_EQ(summary.ok, plan.total_tasks);
  CampaignCollectSummary collected;
  ASSERT_TRUE(CollectCampaign(spec, plan, root_.string(), collected, &error))
      << error;

  JsonValue from_sweep, from_campaign;
  ASSERT_TRUE(ParseJson(sweep_json.str(), from_sweep, &error)) << error;
  ASSERT_TRUE(ParseJson(ReadFile(root_ / "aggregate" / "mig.json"),
                        from_campaign, &error))
      << error;
  ExpectSameJson(from_sweep, from_campaign, "$");

  // The grid does migrate flows, so the comparison above is not 0 == 0.
  const JsonValue* cells = from_campaign.Find("cells");
  ASSERT_NE(cells, nullptr);
  int migrating_cells = 0;
  for (const JsonValue& cell : cells->items) {
    const JsonValue* migrated = cell.Find("migrated_flows");
    if (migrated != nullptr && migrated->GetNumber("mean") > 0.0) {
      ++migrating_cells;
    }
  }
  EXPECT_EQ(migrating_cells, 4);
}

// Campaign determinism: the outcome records are byte-identical at any
// --jobs once the wall-clock fields are dropped.
TEST_F(CampaignRunnerTest, OutcomeRecordsAreIdenticalAcrossJobCounts) {
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(
      "name=determinism\n"
      "[grid]\n"
      "name=mixed\n"
      "solvers=online.random,online.srpt,coflow.sebf\n"
      "instances=coflow:ports=8,load={load},rounds=25,width=3,seed={seed}\n"
      "loads=0.7,1.2\n"
      "seeds=1..2\n"
      "trials=2\n"
      "scenarios=none|inline:PORT_DOWN 5 2;PORT_UP 12 2\n"
      "[grid]\n"
      "name=fabric\n"
      "solvers=fabric.sebf\n"
      "instances=fabric:shards={shards},partition=block,"
      "coflow:ports=8,load=1.0,rounds=25,width=3,seed={seed}\n"
      "shards=1,2\n"
      "seeds=1..2\n",
      spec, &error))
      << error;
  CampaignPlan plan;
  ASSERT_TRUE(ExpandCampaign(spec, SolverRegistry::Global(), plan, &error))
      << error;

  const auto run = [&](int jobs, const fs::path& root) {
    CampaignRunOptions options;
    options.jobs = jobs;
    CampaignRunSummary summary;
    std::string run_error;
    EXPECT_TRUE(
        RunCampaign(spec, plan, root.string(), options, summary, &run_error))
        << run_error;
    EXPECT_EQ(summary.ok, plan.total_tasks);
  };
  run(1, root_ / "j1");
  run(4, root_ / "j4");

  const std::regex timing(R"re(, "(wall_seconds|rounds_per_sec)": [^,}]*)re");
  int compared = 0;
  for (const CampaignGrid& grid : plan.grids) {
    for (const std::string& id : grid.task_ids) {
      SCOPED_TRACE(id);
      const std::string a = ReadFile(
          fs::path(CampaignTaskDir((root_ / "j1").string(), id)) /
          "outcome.json");
      const std::string b = ReadFile(
          fs::path(CampaignTaskDir((root_ / "j4").string(), id)) /
          "outcome.json");
      ASSERT_FALSE(a.empty());
      EXPECT_EQ(std::regex_replace(a, timing, ""),
                std::regex_replace(b, timing, ""));
      ++compared;
    }
  }
  EXPECT_EQ(compared, plan.total_tasks);
}

}  // namespace
}  // namespace flowsched
