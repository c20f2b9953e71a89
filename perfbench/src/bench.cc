#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "api/instance_source.h"
#include "coflow/coflow_metrics.h"
#include "model/coflow.h"
#include "util/json.h"
#include "util/proc_stats.h"

namespace perfbench {

void Outcome::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
    std::cerr << "perfbench: FAILED " << what << '\n';
  }
}

void Outcome::Ops(long long count, long long failed, const std::string& what) {
  attempted_ += count;
  if (failed > 0) {
    failed_ += failed;
    failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                        std::to_string(count) + ")");
    std::cerr << "perfbench: FAILED " << failures_.back() << '\n';
  }
}

bool Outcome::Check(bool ok, const std::string& what) {
  Op(ok, "check: " + what);
  return ok;
}

void Outcome::Metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

Tracer::Tracer(std::string run_id)
    : run_id_(std::move(run_id)), origin_(Clock::now()) {}

std::int64_t Tracer::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int Tracer::Begin(const std::string& name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, Ns(Clock::now()), 0,
                        open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end_ns = Ns(Clock::now());
  // Spans close in LIFO order; tolerate a mismatch by unwinding to `id`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::Add(const std::string& name, Clock::time_point start,
                 Clock::time_point end) {
  spans_.push_back(
      Span{name, Ns(start), Ns(end), open_.empty() ? -1 : open_.back()});
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  // Children of one parent never overlap (one thread, nested spans), so
  // the covered part of a span is the sum of its children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = totals[s.name];
    ++t.count;
    t.total_ms += (s.end_ns - s.start_ns) * 1e-6;
    t.self_ms += (s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return totals;
}

double Tracer::TotalMs(const std::string& name) const {
  double ms = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) ms += (s.end_ns - s.start_ns) * 1e-6;
  }
  return ms;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", " << flowsched::JsonStr("name", s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", "
        << flowsched::JsonStr("run", run_id_) << "}\n";
  }
  return static_cast<bool>(out);
}

void TracingPolicy::SelectFlowsInto(
    const flowsched::SwitchSpec& sw, flowsched::Round t,
    std::span<const flowsched::PendingFlow> pending, std::vector<int>* picked) {
  const Clock::time_point start = Clock::now();
  inner_.SelectFlowsInto(sw, t, pending, picked);
  const Clock::time_point end = Clock::now();
  select_ns_ +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  ++calls_;
  pending_total_ += static_cast<long long>(pending.size());
  picked_total_ += static_cast<long long>(picked->size());
  if (decision_times_ != nullptr) decision_times_->push_back(end);
  if (tracer_ != nullptr) tracer_->Add("core.select", start, end);
  if (observer_ != nullptr) observer_->OnRound(sw, pending, *picked);
}

void TracingPolicy::RetireFlows(std::span<const flowsched::FlowId> completed,
                                std::span<const flowsched::CoflowId> drained) {
  inner_.RetireFlows(completed, drained);
  if (observer_ != nullptr) observer_->OnRetire(completed, drained);
}

void CoflowStatsReplay::OnRound(
    const flowsched::SwitchSpec& sw,
    std::span<const flowsched::PendingFlow> pending,
    std::span<const int> /*picked*/) {
  if (pending.empty()) return;  // The policies return before ranking.
  const Clock::time_point t0 = Clock::now();
  stats_.Update(sw, pending, /*with_bottlenecks=*/true);
  tracer_->Add("coflow.stats_update", t0, Clock::now());
  ++rounds;
  live_groups += static_cast<long long>(stats_.touched().size());
}

void Quality::Add(const flowsched::Instance& instance,
                  const flowsched::Schedule& schedule, double total,
                  double max) {
  total_response += total;
  flows += instance.num_flows();
  sum_max_response += max;
  ++solves;
  const flowsched::CoflowSet groups(instance);
  const flowsched::CoflowMetrics cm =
      flowsched::ComputeCoflowMetrics(instance, groups, schedule);
  total_cct += cm.total_cct;
  coflows += groups.num_groups();
}

double Quality::avg_response() const {
  return flows > 0 ? total_response / static_cast<double>(flows) : 0.0;
}
double Quality::max_response() const {
  return solves > 0 ? sum_max_response / static_cast<double>(solves) : 0.0;
}
double Quality::avg_cct() const {
  return coflows > 0 ? total_cct / static_cast<double>(coflows) : 0.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0,
                                          static_cast<double>(values.size()))) -
      1;
  return values[idx];
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

std::vector<double> MinAcross(const std::vector<std::vector<double>>& runs) {
  if (runs.empty()) return {};
  std::vector<double> out = runs[0];
  for (const auto& run : runs) {
    out.resize(std::min(out.size(), run.size()));
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = std::min(out[k], run[k]);
  }
  return out;
}

double PeakRssMb() {
  return static_cast<double>(flowsched::PeakRssKb()) / 1024.0;
}

bool LoadSpec(const std::string& spec, flowsched::Instance* out,
              Outcome& outcome) {
  std::string error;
  auto instance = flowsched::LoadInstance(spec, &error);
  if (!instance.has_value()) {
    outcome.Op(false, "generate " + spec + ": " + error);
    return false;
  }
  *out = std::move(*instance);
  return true;
}

void CheckPinned(const Args& args,
                 const std::map<std::string, double>& values,
                 Outcome& outcome) {
  if (args.seed != kPinnedSeed) return;
  std::ifstream in(args.pinned_path);
  std::stringstream text;
  text << in.rdbuf();
  flowsched::JsonValue root;
  std::string error;
  if (!outcome.Check(in.good() && flowsched::ParseJson(text.str(), root, &error),
                     "pinned values readable from " + args.pinned_path +
                         " " + error)) {
    return;
  }
  const flowsched::JsonValue* pinned = root.Find(args.workload);
  if (!outcome.Check(pinned != nullptr,
                     "pinned values present for " + args.workload)) {
    return;
  }
  for (const auto& [name, value] : values) {
    const flowsched::JsonValue* want = pinned->Find(name);
    if (!outcome.Check(want != nullptr, "pinned " + name + " present")) {
      continue;
    }
    const double expected = pinned->GetNumber(name);
    std::ostringstream what;
    what.precision(17);
    what << "pinned " << name << ": got " << value << ", pinned "
         << expected;
    outcome.Check(value == expected, what.str());
  }
}

double WaitUntil(Clock::time_point due) {
  // Sleep while far from the deadline, then spin: a plain sleep overshoots
  // by tens of microseconds, a large share of a sub-millisecond slot.
  constexpr auto kSpinWindow = std::chrono::microseconds(300);
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= due) return SecondsBetween(due, now);
    if (due - now > kSpinWindow) {
      std::this_thread::sleep_for(due - now - kSpinWindow);
    }
  }
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"graph.build_ms", "ms"},
      {"graph.hungarian_ms", "ms"},
      {"graph.warmstart_ms", "ms"},
      {"graph.auction_ms", "ms"},
      {"graph.matcher_solves", "count"},
      {"graph.cache_hit_frac", "ratio"},
      {"graph.reused_row_frac", "ratio"},
      {"graph.auction_bids", "count"},
      {"graph.auction_cold_restarts", "count"},
      {"graph.coloring_ms", "ms"},
      {"core.simulate_ms", "ms"},
      {"core.select_ms", "ms"},
      {"core.loop_self_ms", "ms"},
      {"core.rounds", "count"},
      {"core.pending_per_round", "count"},
      {"core.picked_per_round", "count"},
      {"core.select_yield", "ratio"},
      {"coflow.stats_update_ms", "ms"},
      {"coflow.live_groups", "count"},
      {"fabric.partition_ms", "ms"},
      {"fabric.shard_ms_max", "ms"},
      {"fabric.load_imbalance", "ratio"},
      {"fabric.cross_shard_flows", "count"},
      {"serve.parse_us", "us"},
      {"serve.inject_us", "us"},
      {"serve.step_us", "us"},
      {"serve.select_us", "us"},
      {"serve.step_self_us", "us"},
      {"serve.queue_wait_us", "us"},
      {"serve.late_round_frac", "ratio"},
      {"serve.live_flows", "count"},
      {"serve.retired_per_round", "count"},
      {"serve.reply_bytes_per_round", "bytes"},
      {"lp.art_lp_ms", "ms"},
      {"lp.art_iterations", "count"},
      {"lp.art_rows", "count"},
      {"lp.art_cols", "count"},
      {"lp.mrt_feasible_ms", "ms"},
      {"lp.mrt_infeasible_ms", "ms"},
      {"lp.mrt_iterations", "count"},
      {"core.art_rounding_ms", "ms"},
      {"core.art_rounding_iterations", "count"},
      {"core.mrt_total_ms", "ms"},
      {"core.mrt_probes", "count"},
      {"workload.generate_ms", "ms"},
      {"traffic.generate_ms", "ms"},
      {"api.adapter_ms", "ms"},
      {"model.metrics_ms", "ms"},
      {"exp.overhead_ms", "ms"},
      {"bench.send_lag_p99_us", "us"},
      {"bench.trace_overhead_frac", "ratio"},
  };
  return kMetrics;
}

void ReportTrace(const Args& args, const Tracer& tracer, Outcome& outcome) {
  std::cout << "# trace spans (" << args.workload << ", seed " << args.seed
            << "): name count total_ms self_ms\n";
  for (const auto& [name, t] : tracer.Summarize()) {
    std::printf("#   %-28s %8lld %12.3f %12.3f\n", name.c_str(), t.count,
                t.total_ms, t.self_ms);
  }
  std::fflush(stdout);
  std::cout << "# per-layer metrics: name value unit\n";
  for (const auto& [name, unit] : PerLayerMetrics()) {
    const auto it = outcome.metrics().find(name);
    const double value = it == outcome.metrics().end() ? 0.0 : it->second.value;
    std::printf("#   %-30s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
  std::fflush(stdout);
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".jsonl";
    if (!tracer.WriteJsonl(path)) {
      std::cerr << "perfbench: could not write " << path << '\n';
    }
  }
}

}  // namespace perfbench
