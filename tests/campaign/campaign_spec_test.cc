#include "campaign/campaign_spec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "api/registry.h"
#include "campaign/campaign_plan.h"

namespace flowsched {
namespace {

TEST(ParseCampaignSpecTest, TextFormatWithGridSections) {
  const std::string text =
      "# paper figure reproductions\n"
      "name=paper-figs\n"
      "title=Paper figures\n"
      "out_root=out/figs\n"
      "[grid]\n"
      "name=fig6\n"
      "solvers=online.maxcard,online.minrtime\n"
      "instances=poisson:ports=8,load={load},rounds=20,seed={seed}\n"
      "loads=0.5,1.0\n"
      "seeds=1..2\n"
      "[grid]\n"
      "name=fig7\n"
      "solvers=online.maxweight\n"
      "instances=poisson:ports=8,load=1.0,rounds=20,seed={seed}\n"
      "seeds=1..3\n"
      "trials=2\n";
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(text, spec, &error)) << error;
  EXPECT_EQ(spec.name, "paper-figs");
  EXPECT_EQ(spec.title, "Paper figures");
  EXPECT_EQ(CampaignOutRoot(spec), "out/figs");
  ASSERT_EQ(spec.grids.size(), 2u);
  EXPECT_EQ(spec.grids[0].name, "fig6");
  EXPECT_EQ(spec.grids[0].solvers,
            (std::vector<std::string>{"online.maxcard", "online.minrtime"}));
  EXPECT_EQ(spec.grids[0].loads, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(spec.grids[1].name, "fig7");
  EXPECT_EQ(spec.grids[1].trials, 2);
  EXPECT_EQ(spec.grids[1].seeds,
            (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(ParseCampaignSpecTest, JsonFormat) {
  const std::string text = R"({
    "name": "core",
    "title": "Core comparison",
    "grids": [
      {"name": "flow",
       "solvers": ["online.fifo", "online.srpt"],
       "instances": ["poisson:ports=8,load={load},rounds=20,seed={seed}"],
       "loads": "0.7,1.0",
       "seeds": "1..2",
       "params": {"validate": "1"}},
      {"name": "faults",
       "solvers": ["online.srpt"],
       "instances": ["poisson:ports=8,load=1.0,rounds=40,seed={seed}"],
       "seeds": [1, 2],
       "scenarios": ["none", "inline:PORT_DOWN 10 2;PORT_UP 20 2"]}
    ]
  })";
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(text, spec, &error)) << error;
  EXPECT_EQ(spec.name, "core");
  EXPECT_EQ(CampaignOutRoot(spec), "campaign_runs/core");
  ASSERT_EQ(spec.grids.size(), 2u);
  EXPECT_EQ(spec.grids[0].loads, (std::vector<double>{0.7, 1.0}));
  EXPECT_EQ(spec.grids[0].params.at("validate"), "1");
  // '|' separates the scenarios axis because inline scripts use ';'.
  ASSERT_EQ(spec.grids[1].scenarios.size(), 2u);
  EXPECT_EQ(spec.grids[1].scenarios[1],
            "inline:PORT_DOWN 10 2;PORT_UP 20 2");
  EXPECT_EQ(spec.grids[1].seeds, (std::vector<std::uint64_t>{1, 2}));
}

TEST(ParseCampaignSpecTest, RejectsBadInput) {
  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCampaignSpec("", spec, &error));
  EXPECT_FALSE(ParseCampaignSpec("name=x\n", spec, &error));  // No grids.
  // Unsafe names (path separators would escape the output root).
  EXPECT_FALSE(ParseCampaignSpec(
      "name=../evil\n[grid]\nname=g\nsolvers=online.fifo\n"
      "instances=fig4b\n",
      spec, &error));
  EXPECT_FALSE(ParseCampaignSpec(
      "name=ok\n[grid]\nname=a/b\nsolvers=online.fifo\ninstances=fig4b\n",
      spec, &error));
  // Duplicate grid names key the same run directories.
  EXPECT_FALSE(ParseCampaignSpec(
      "name=ok\n"
      "[grid]\nname=g\nsolvers=online.fifo\ninstances=fig4b\n"
      "[grid]\nname=g\nsolvers=online.srpt\ninstances=fig4b\n",
      spec, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  // Campaign-level unknown key.
  EXPECT_FALSE(ParseCampaignSpec("bogus=1\n[grid]\nname=g\n", spec, &error));
  // Grid errors carry through.
  EXPECT_FALSE(ParseCampaignSpec(
      "name=ok\n[grid]\nname=g\nbogus_key=1\n", spec, &error));
  // JSON: grids must be an array of objects.
  EXPECT_FALSE(ParseCampaignSpec(R"({"name": "x", "grids": 3})", spec,
                                 &error));
  EXPECT_FALSE(ParseCampaignSpec(R"({"name": "x", "grids": [42]})", spec,
                                 &error));
  EXPECT_FALSE(ParseCampaignSpec(R"({"nope": 1})", spec, &error));
}

TEST(ParseCampaignSpecTest, CheckedInSpecsStayParseable) {
  // The shipped campaign files are part of the public contract: every
  // campaigns/*.json must parse, carry its file name, and expand every
  // grid against the builtin registry (solver names, axes, and each
  // generator template's keys and values), so a spec-format or registry
  // change cannot silently orphan one. Tests run from the build tree;
  // campaigns/ sits in the source root.
  const std::filesystem::path dir =
      std::filesystem::path(FLOWSCHED_SOURCE_DIR) / "campaigns";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  ASSERT_GE(files.size(), 8u) << dir;
  for (const auto& path : files) {
    SCOPED_TRACE(path.string());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    CampaignSpec spec;
    std::string error;
    ASSERT_TRUE(ParseCampaignSpec(buffer.str(), spec, &error)) << error;
    EXPECT_EQ(spec.name, path.stem().string());
    EXPECT_FALSE(spec.grids.empty());
    CampaignPlan plan;
    ASSERT_TRUE(ExpandCampaign(spec, SolverRegistry::Global(), plan, &error))
        << error;
    EXPECT_EQ(plan.grids.size(), spec.grids.size());
    for (const CampaignGrid& grid : plan.grids) {
      EXPECT_FALSE(grid.plan.tasks.empty()) << grid.spec.name;
    }
  }
}

}  // namespace
}  // namespace flowsched
