// The zero-allocation round contract (docs/architecture.md): once the
// backlog has reached its peak, an online policy's round costs no heap
// allocation. This binary replaces the global operator new to count
// allocations around StreamingSimulator::Run, on a short and a ten times
// longer stream of the same traffic; the count may grow with the peak
// backlog, never with the number of rounds.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "api/stream_source.h"
#include "serve/daemon.h"
#include "serve/streaming_simulator.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flowsched {
namespace {

constexpr int kShortRounds = 2000;
constexpr int kLongRounds = 20000;

struct StreamRun {
  std::uint64_t allocations = 0;
  long long coflows = 0;
};

// Allocations made inside Run() alone: source, policy and simulator are
// built first, so only the round loop and the policy's scratch count.
StreamRun RunStream(const std::string& policy_name, int rounds) {
  std::string error;
  const auto source = MakeStreamSource(
      "poisson:ports=16,load=0.8,rounds=" + std::to_string(rounds) + ",seed=3",
      &error);
  EXPECT_NE(source, nullptr) << error;
  const auto policy = MakeServePolicy(policy_name, &error, /*seed=*/7);
  EXPECT_NE(policy, nullptr) << error;
  if (source == nullptr || policy == nullptr) return {};
  StreamingOptions options;
  options.validate = false;
  StreamingSimulator sim(source->sw(), *policy, options);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const StreamingSummary summary = sim.Run(*source);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_FALSE(summary.source_error) << summary.error;
  EXPECT_FALSE(summary.truncated);
  return {after - before, summary.coflows};
}

// Every online.* and coflow.* policy: fewer than one allocation per 100
// extra rounds; a per-round allocation (a stable_sort buffer, a fresh
// vector) adds 18,000 here. coflow.* policies may also allocate once per
// new group (its backlog stats entry), which the contract allows: every
// untagged flow is its own group, so on this traffic they grow by about one
// allocation per flow.
TEST(AllocationTest, PolicyRoundsDoNotAllocate) {
  std::vector<std::string> names =
      SolverRegistry::Global().NamesMatching("online.*");
  for (const std::string& name :
       SolverRegistry::Global().NamesMatching("coflow.*")) {
    names.push_back(name);
  }
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const StreamRun short_run = RunStream(name, kShortRounds);
    const StreamRun long_run = RunStream(name, kLongRounds);
    // Run() grows its buffers to the peak backlog, so the counter must
    // see allocations at all.
    ASSERT_GT(short_run.allocations, 0u);
    const long long new_groups = name.rfind("coflow.", 0) == 0
                                     ? long_run.coflows - short_run.coflows
                                     : 0;
    const long long growth = static_cast<long long>(long_run.allocations -
                                                    short_run.allocations) -
                             new_groups;
    EXPECT_LT(growth, (kLongRounds - kShortRounds) / 100)
        << short_run.allocations << " allocations at " << kShortRounds
        << " rounds, " << long_run.allocations << " at " << kLongRounds
        << ", " << new_groups << " new groups allowed for";
  }
}

}  // namespace
}  // namespace flowsched
