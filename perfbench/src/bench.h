// Shared machinery of the benchmark program: run arguments, the result
// record (operations, correctness checks, metrics), the in-memory span
// tracer, and the SchedulingPolicy decorator that times and observes a
// policy from outside. Everything here sits in the benchmark; the program
// under test is only called through its public headers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "coflow/coflow_policies.h"
#include "core/online/policy.h"
#include "model/instance.h"
#include "model/schedule.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The seed whose quality figures are pinned in pinned.json.
constexpr std::uint64_t kPinnedSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string pinned_path;
  std::string out_dir;
  std::string source_hash;
};

// What one run reports: operations attempted / failed, correctness checks
// (a failed check counts as a failed operation), and named metrics.
class Outcome {
 public:
  // One operation of the workload (a solve, or a served round).
  void Op(bool ok, const std::string& what);
  // `count` operations of which `failed` failed, described once.
  void Ops(long long count, long long failed, const std::string& what);
  // A correctness check; failures are listed on stderr and in the report.
  bool Check(bool ok, const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Value>& metrics() const { return metrics_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Value> metrics_;
};

// Spans kept in memory and written when the run ends. A span's parent is
// the innermost span open when it began; all spans of one run share the
// run id.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  struct Totals {
    long long count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  explicit Tracer(std::string run_id);

  int Begin(const std::string& name);
  void End(int id);
  // Records an already-finished span [start, end] under the open span.
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end);

  // Per span name: count, summed duration and summed self time (duration
  // minus the part covered by child spans).
  std::map<std::string, Totals> Summarize() const;
  double TotalMs(const std::string& name) const;
  // One JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::int64_t Ns(Clock::time_point t) const;

  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Sees every round a TracingPolicy forwards, after the policy decided.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;
  virtual void OnRound(const flowsched::SwitchSpec& sw,
                       std::span<const flowsched::PendingFlow> pending,
                       std::span<const int> picked) = 0;
  virtual void OnRetire(std::span<const flowsched::FlowId> /*completed*/,
                        std::span<const flowsched::CoflowId> /*drained*/) {}
};

// Replays each round of a coflow policy through
// CoflowBacklogStats::Update with bottlenecks (as SEBF ranks by them),
// recycling slots as the policy does.
class CoflowStatsReplay : public RoundObserver {
 public:
  explicit CoflowStatsReplay(Tracer* tracer) : tracer_(tracer) {}
  void OnRound(const flowsched::SwitchSpec& sw,
               std::span<const flowsched::PendingFlow> pending,
               std::span<const int> picked) override;
  void OnRetire(std::span<const flowsched::FlowId> completed,
                std::span<const flowsched::CoflowId> drained) override {
    stats_.Retire(completed, drained);
  }

  long long rounds = 0;
  long long live_groups = 0;  // Summed over rounds.

 private:
  Tracer* tracer_;
  flowsched::CoflowBacklogStats stats_;
};

// Decorator around a policy: times SelectFlowsInto, counts pending and
// picked flows, optionally records each decision's return time, a span
// per decision and hands each round to an observer. Everything else is
// forwarded, so the decorated run makes the same decisions.
class TracingPolicy : public flowsched::SchedulingPolicy {
 public:
  TracingPolicy(flowsched::SchedulingPolicy& inner, Tracer* tracer,
                RoundObserver* observer,
                std::vector<Clock::time_point>* decision_times)
      : inner_(inner),
        tracer_(tracer),
        observer_(observer),
        decision_times_(decision_times) {}

  std::string_view name() const override { return inner_.name(); }
  bool RequiresUnitDemands() const override {
    return inner_.RequiresUnitDemands();
  }
  void Reset() override { inner_.Reset(); }
  void SelectFlowsInto(const flowsched::SwitchSpec& sw, flowsched::Round t,
                       std::span<const flowsched::PendingFlow> pending,
                       std::vector<int>* picked) override;
  void RetireFlows(std::span<const flowsched::FlowId> completed,
                   std::span<const flowsched::CoflowId> drained) override;
  flowsched::PolicyMatchingStats matching_stats() const override {
    return inner_.matching_stats();
  }

  double select_ms() const { return select_ns_ * 1e-6; }
  long long calls() const { return calls_; }
  long long pending_total() const { return pending_total_; }
  long long picked_total() const { return picked_total_; }

 private:
  flowsched::SchedulingPolicy& inner_;
  Tracer* tracer_;
  RoundObserver* observer_;
  std::vector<Clock::time_point>* decision_times_;
  std::int64_t select_ns_ = 0;
  long long calls_ = 0;
  long long pending_total_ = 0;
  long long picked_total_ = 0;
};

// Aggregated schedule quality over the solves of one pass: the paper's
// objectives, summed so that the averages are exact.
struct Quality {
  double total_response = 0.0;
  long long flows = 0;
  double sum_max_response = 0.0;
  long long solves = 0;
  double total_cct = 0.0;
  long long coflows = 0;

  // Adds one solve; CCT is computed over the instance's coflow groups
  // (untagged flows are singleton groups).
  void Add(const flowsched::Instance& instance,
           const flowsched::Schedule& schedule, double total_response,
           double max_response);
  double avg_response() const;
  double max_response() const;  // Mean over solves of each solve's max.
  double avg_cct() const;
};

// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Min(const std::vector<double>& values);
// Element-wise minimum across runs of the same deterministic work (the
// shortest length when they differ). Interference from other tenants of
// the host only ever slows a run down, in bursts of a fraction of a
// second, so the minimum over repetitions is the steadiest estimate of
// each item's own cost.
std::vector<double> MinAcross(const std::vector<std::vector<double>>& runs);

// Peak resident set of this process in MiB.
double PeakRssMb();

// Generates a generator-spec instance; a failure is a failed operation.
bool LoadSpec(const std::string& spec, flowsched::Instance* out,
              Outcome& outcome);

// At kPinnedSeed, each of `values` must equal the workload's entry in the
// pinned file exactly (a missing entry fails too). Other seeds skip this.
void CheckPinned(const Args& args,
                 const std::map<std::string, double>& values,
                 Outcome& outcome);

// Spin-and-sleep until `due`; returns how late it woke up.
double WaitUntil(Clock::time_point due);

// Workload entry points (one file each).
void RunBatch(const Args& args, Outcome& outcome);
void RunServeOpen(const Args& args, Outcome& outcome);
void RunOfflineLp(const Args& args, Outcome& outcome);

// Per-layer metric names every traced run reports; a workload leaves the
// layers it does not exercise at 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// Prints the traced report (span self times, then the per-layer table)
// as '#' comment lines and writes the spans to args.out_dir.
void ReportTrace(const Args& args, const Tracer& tracer, Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
