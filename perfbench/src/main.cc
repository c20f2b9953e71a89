// perfbench: runs one benchmark workload and prints its result.
//
//   perfbench --workload <name> --seed <n> --seconds <s>
//             --trace <0|1> [--pinned <file>] [--out-dir <dir>]
//             [--source-hash <hex>]
//
// Report lines start with '#'; the last line is the result object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set.
// perfbench/README.md documents both.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench.h"
#include "util/json.h"
#include "util/provenance.h"

namespace perfbench {
namespace {

struct WorkloadInfo {
  const char* name;
  const char* why;
};

// Same reasons as BENCHMARK.json; each workload stresses a different layer.
constexpr WorkloadInfo kWorkloads[] = {
    {"batch-maxweight",
     "exact MaxWeight matching on 256-port cells: the graph/ matchers do "
     "most of the work, so a matcher change shows here"},
    {"batch-light",
     "SRPT/SEBF/fabric SEBF on 256-port coflow traffic: round loop, coflow "
     "bookkeeping and fabric runner, no matcher"},
    {"serve-open",
     "open-loop wire session of coflow.sebf at 64 ports: per-round decision "
     "latency from due times and the highest sustainable cadence"},
    {"offline-lp",
     "Theorem 1 and Theorem 3 LP algorithms on small Poisson instances "
     "through the sweep executor: lp/simplex dominates"},
};

const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},           {"solve_s", "s"},
    {"avg_response", "rounds"}, {"max_response", "rounds"},
    {"avg_cct", "rounds"},      {"decision_p50_us", "us"},
    {"decision_p99_us", "us"},  {"max_rate_rps", "1/s"},
    {"peak_rss_mb", "MB"},
};

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--pinned <file>] "
               "[--out-dir <dir>] [--source-hash <hex>]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0)) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--pinned") {
      args->pinned_path = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--source-hash") {
      args->source_hash = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  for (const WorkloadInfo& w : kWorkloads) {
    if (args->workload == w.name) return true;
  }
  *error = "unknown --workload \"" + args->workload + "\"";
  return false;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// The Hungarian row-scan kernel this CPU dispatches to; the same test as
// graph/max_weight_matching.cc.
const char* HungarianScanPath() {
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "scalar";
}

// Minimum and median time of a fixed integer loop, in ms: how fast this
// host runs right now. Other tenants sharing the physical cores slow every
// timing of a run alike, so results are comparable only at similar values.
std::pair<double, double> HostCalibrationMs() {
  std::vector<std::uint32_t> v(1 << 14);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint32_t>(i) * 2654435761u;
  }
  std::uint64_t acc = 0;
  std::vector<double> ms;
  for (int rep = 0; rep < 25; ++rep) {
    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < 100; ++k) {
      for (std::uint32_t& x : v) {
        acc += x ^ (acc >> 3);
        x += static_cast<std::uint32_t>(acc);
      }
    }
    ms.push_back(SecondsBetween(t0, Clock::now()) * 1e3);
  }
  if (acc == 1) ms.push_back(0.0);  // Keeps the loop observable.
  return {Min(ms), Median(ms)};
}

std::string ProvenanceJson(const Args& args, const char* why) {
  using flowsched::JsonStr;
  const flowsched::Provenance p = flowsched::CollectProvenance();
  std::ostringstream out;
  out << "{" << JsonStr("workload", args.workload) << ", "
      << JsonStr("why", why) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << flowsched::JsonNum(args.seconds)
      << ", \"trace\": " << (args.trace ? 1 : 0) << ", "
      << JsonStr("cpu_model", CpuModel())
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", "
      << JsonStr("hungarian_scan", HungarianScanPath()) << ", "
      << JsonStr("git_sha", p.git_sha) << ", "
      << JsonStr("source_hash", args.source_hash) << ", "
      << JsonStr("compiler", p.compiler) << ", "
      << JsonStr("compiler_flags", PERFBENCH_CXX_FLAGS) << ", "
      << JsonStr("build_type", p.build_type);
  const auto [cal_min, cal_median] = HostCalibrationMs();
  out << ", \"host_calibration_ms\": {\"min\": " << cal_min
      << ", \"median\": " << cal_median << "}}";
  return out.str();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error);
  const char* why = "";
  for (const WorkloadInfo& w : kWorkloads) {
    if (args.workload == w.name) why = w.why;
  }
  const std::string provenance = ProvenanceJson(args, why);
  std::cout << "# provenance " << provenance << '\n' << std::flush;

  Outcome outcome;
  if (args.workload == "serve-open") {
    RunServeOpen(args, outcome);
  } else if (args.workload == "offline-lp") {
    RunOfflineLp(args, outcome);
  } else {
    RunBatch(args, outcome);
  }

  // The reported set is fixed per mode; a metric the workload failed to
  // produce is a harness defect and fails the run's correctness.
  std::vector<std::pair<std::string, std::string>> reported;
  if (args.trace) {
    reported = PerLayerMetrics();
  } else {
    for (const auto& [name, unit] : kEndToEnd) reported.emplace_back(name, unit);
  }
  bool complete = true;
  std::string metrics = "{";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const auto& [name, unit] = reported[i];
    const auto it = outcome.metrics().find(name);
    double value = 0.0;
    if (it != outcome.metrics().end()) {
      value = it->second.value;
    } else if (!args.trace) {
      complete = false;
      std::cerr << "perfbench: workload produced no " << name << '\n';
    }
    metrics += (i ? ", " : "") + std::string("\"") + name +
               "\": {\"value\": " + Num(value) + ", \"unit\": \"" + unit +
               "\"}";
  }
  metrics += "}";
  const long long attempted = std::max(outcome.attempted(), 1LL);
  const long long failed = outcome.failed() + (complete ? 0 : 1);
  const bool correct = failed == 0 && outcome.attempted() > 0;

  std::cout << "# " << args.workload << " seed " << args.seed << ": "
            << attempted << " operations, " << failed << " failed, fail_frac "
            << Num(static_cast<double>(failed) / static_cast<double>(attempted))
            << '\n';
  for (const std::string& f : outcome.failures()) {
    std::cout << "#   failure: " << f << '\n';
  }
  if (!args.trace) {
    for (const auto& [name, unit] : reported) {
      const auto it = outcome.metrics().find(name);
      if (it != outcome.metrics().end()) {
        std::printf("#   %-18s %18.6f %s\n", name.c_str(), it->second.value,
                    unit.c_str());
      }
    }
    std::fflush(stdout);
  }
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " + metrics +
      "}";
  if (!args.out_dir.empty()) {
    std::ofstream out(args.out_dir + "/result-" + args.workload + "-seed" +
                      std::to_string(args.seed) + "-trace" +
                      (args.trace ? "1" : "0") + ".json");
    out << "{\"provenance\": " << provenance << ", \"result\": " << result
        << "}\n";
  }
  std::cout << result << '\n' << std::flush;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
