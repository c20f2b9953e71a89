#include "serve/wire_protocol.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "serve/daemon.h"
#include "util/json.h"

namespace flowsched {
namespace {

WireCommand MustParse(const std::string& line) {
  WireCommand command;
  std::string error;
  EXPECT_TRUE(ParseWireLine(line, &command, &error)) << error;
  return command;
}

std::string MustFail(const std::string& line) {
  WireCommand command;
  std::string error;
  EXPECT_FALSE(ParseWireLine(line, &command, &error)) << line;
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(WireProtocolTest, ParsesArrive) {
  const WireCommand c = MustParse("ARRIVE 3 0 5 2");
  EXPECT_EQ(c.kind, WireCommand::Kind::kArrive);
  EXPECT_EQ(c.flow.id, 3);
  EXPECT_EQ(c.flow.src, 0);
  EXPECT_EQ(c.flow.dst, 5);
  EXPECT_EQ(c.flow.demand, 2);
  EXPECT_EQ(c.flow.coflow, kNoCoflow);
}

TEST(WireProtocolTest, ParsesArriveWithCoflowTag) {
  const WireCommand c = MustParse("ARRIVE 1 2 3 1 42");
  EXPECT_EQ(c.flow.coflow, 42);
}

TEST(WireProtocolTest, ParsesControlCommands) {
  EXPECT_EQ(MustParse("TICK").kind, WireCommand::Kind::kTick);
  EXPECT_EQ(MustParse("STATS").kind, WireCommand::Kind::kStats);
  EXPECT_EQ(MustParse("STOP").kind, WireCommand::Kind::kStop);
}

TEST(WireProtocolTest, BlankAndCommentLinesAreNoops) {
  EXPECT_EQ(MustParse("").kind, WireCommand::Kind::kNone);
  EXPECT_EQ(MustParse("   ").kind, WireCommand::Kind::kNone);
  EXPECT_EQ(MustParse("# comment").kind, WireCommand::Kind::kNone);
}

TEST(WireProtocolTest, RejectsMalformedLines) {
  MustFail("ARRIVE");                   // Too few fields.
  MustFail("ARRIVE 1 2 3");             // Still too few.
  MustFail("ARRIVE 1 2 3 1 7 9");       // Too many.
  MustFail("ARRIVE x 2 3 1");           // Non-numeric.
  MustFail("ARRIVE -1 2 3 1");          // Negative id.
  MustFail("ARRIVE 1 2 3 0");           // Zero size.
  MustFail("ARRIVE 1 2 3 1 -2");        // Negative coflow tag.
  MustFail("ARRIVE 2147483648 0 0 1");  // Id overflows int.
  MustFail("TICK 3");                   // TICK takes no operands.
  MustFail("LAUNCH");                   // Unknown verb.
}

std::vector<std::string> SessionLines(const std::string& script,
                                      ServeOptions options = {},
                                      int ports = 4, Capacity cap = 1) {
  const SwitchSpec sw = SwitchSpec::Uniform(ports, ports, cap);
  std::istringstream in(script);
  std::ostringstream out;
  RunWireSession(sw, in, out, options);
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  return lines;
}

TEST(WireSessionTest, ScriptedSessionProducesExpectedReplies) {
  // Two flows on disjoint ports: SRPT schedules both in round 0.
  const auto lines = SessionLines(
      "ARRIVE 0 0 1 1\n"
      "ARRIVE 1 2 3 1\n"
      "TICK\n"
      "STOP\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "MATCH 0 0 1");
  EXPECT_EQ(lines[1].rfind("DONE {\"flows\":2,", 0), 0u) << lines[1];
}

TEST(WireSessionTest, ContendingFlowsTakeTwoRounds) {
  // Same src port, capacity 1: one flow per round.
  const auto lines = SessionLines(
      "ARRIVE 7 0 1 1\n"
      "ARRIVE 9 0 2 1\n"
      "TICK\n"
      "TICK\n"
      "STOP\n");
  ASSERT_GE(lines.size(), 3u);
  // SRPT breaks the size tie by release then id order.
  EXPECT_EQ(lines[0], "MATCH 0 7");
  EXPECT_EQ(lines[1], "MATCH 1 9");
}

TEST(WireSessionTest, ErrorsDoNotEndTheSession) {
  const auto lines = SessionLines(
      "ARRIVE 0 99 0 1\n"  // Port out of range.
      "NONSENSE\n"
      "ARRIVE 0 0 1 1\n"   // Valid after two errors.
      "TICK\n"
      "STOP\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("ERROR ", 0), 0u);
  EXPECT_EQ(lines[1].rfind("ERROR ", 0), 0u);
  EXPECT_EQ(lines[2], "MATCH 0 0");
  EXPECT_EQ(lines[3].rfind("DONE ", 0), 0u);
}

TEST(WireSessionTest, DuplicateLiveIdRejectedButReusableAfterCompletion) {
  const auto lines = SessionLines(
      "ARRIVE 5 0 1 1\n"
      "ARRIVE 5 1 2 1\n"  // Still live: rejected.
      "TICK\n"
      "ARRIVE 5 1 2 1\n"  // Flow 5 completed in round 0: id is free again.
      "TICK\n"
      "STOP\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("ERROR flow id 5 is already live", 0), 0u);
  EXPECT_EQ(lines[1], "MATCH 0 5");
  EXPECT_EQ(lines[2], "MATCH 1 5");
}

TEST(WireSessionTest, StatsCommandEmitsPrefixedJson) {
  const auto lines = SessionLines(
      "ARRIVE 0 0 1 1\n"
      "TICK\n"
      "STATS\n"
      "STOP\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].rfind("STATS {\"round\":1,", 0), 0u) << lines[1];
}

TEST(WireSessionTest, UnitDemandPolicyRejectsWideFlows) {
  // Capacity 2 makes demand 2 feasible for the switch, so the rejection
  // below is the policy's unit-demand requirement, not a range check.
  ServeOptions options;
  options.policy = "online.maxweight";
  const auto lines = SessionLines(
      "ARRIVE 0 0 1 2\n"
      "STOP\n",
      options, /*ports=*/4, /*cap=*/2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "ERROR policy maxweight requires unit demands");
}

TEST(WireSessionTest, RoundCapStopsTicks) {
  ServeOptions options;
  options.max_rounds = 1;
  const auto lines = SessionLines(
      "TICK\n"
      "TICK\n"
      "STOP\n",
      options);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERROR round cap reached", 0), 0u);
  EXPECT_EQ(lines[1].rfind("DONE ", 0), 0u);
}

TEST(WireSessionTest, UnknownPolicyFailsUpfront) {
  ServeOptions options;
  options.policy = "online.nope";
  const auto lines = SessionLines("STOP\n", options);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("ERROR unknown policy", 0), 0u);
}

TEST(WireSessionTest, EofActsAsStop) {
  const auto lines = SessionLines("ARRIVE 0 0 1 1\nTICK\n");  // No STOP.
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1].rfind("DONE ", 0), 0u);
}

TEST(StreamingSummaryTest, ToJsonEscapesControlCharactersInError) {
  // A trace row's coflow tag reaches the DONE line's error verbatim; a raw
  // tab there made the line invalid JSON.
  StreamingSummary summary;
  summary.source_error = true;
  summary.error = "line 7: unparsable coflow tag: x\ty \"q\" \\ \x01\n";
  const std::string json = summary.ToJson();
  for (char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
  }
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(ParseJson(json, parsed, &error)) << error << ": " << json;
  EXPECT_EQ(parsed.GetString("error"), summary.error);
  EXPECT_TRUE(parsed.GetBool("source_error"));
}

}  // namespace
}  // namespace flowsched
