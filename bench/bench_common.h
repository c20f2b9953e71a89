// Shared helpers for the benchmark harness: scaled sweep configurations,
// multi-trial policy evaluation (OpenMP across trials), and CSV emission.
//
// The paper's experiments (§5.2) run a 150x150 unit-capacity switch with
// M ∈ {50,100,150,300,600} Poisson arrivals per round, i.e. per-port load
// ratios {1/3, 2/3, 1, 2, 4}. The LP-compared sweeps here reproduce those
// *load ratios* on a scaled switch (the offline LP solvers do not finish
// at 150 ports), while the heuristic-only sweeps also run the paper's full
// scale.
#ifndef FLOWSCHED_BENCH_BENCH_COMMON_H_
#define FLOWSCHED_BENCH_BENCH_COMMON_H_

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/online/simulator.h"
#include "model/metrics.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/poisson.h"

#if defined(FLOWSCHED_HAVE_OPENMP)
#include <omp.h>
#endif

namespace flowsched::bench {

// The paper's per-port load ratios M/m.
inline const std::vector<double> kPaperLoadRatios = {1.0 / 3, 2.0 / 3, 1.0,
                                                     2.0, 4.0};

// Labels the panel the same way the paper labels Figures 6/7 (by M at 150
// ports).
inline std::string PanelLabel(double load_ratio) {
  return "M/m=" + TextTable::Format(load_ratio) +
         " (paper M=" + std::to_string(static_cast<int>(load_ratio * 150)) +
         ")";
}

struct SweepScale {
  int ports = 8;                 // Scaled switch size for LP-compared runs.
  std::vector<int> lp_rounds;    // T values with LP bounds.
  std::vector<int> heur_rounds;  // Extra T values, heuristics only.
  int trials = 3;
  int full_ports = 150;               // Paper-scale, heuristics only.
  std::vector<int> full_rounds;       // T values at full scale.
  std::vector<double> full_ratios;    // Load ratios at full scale.
  int full_trials = 2;
};

inline SweepScale ScaleFor(BenchScale scale) {
  switch (scale) {
    case BenchScale::kQuick:
      return SweepScale{6, {6, 8}, {16}, 2, 150, {10}, {1.0}, 1};
    case BenchScale::kFull:
      return SweepScale{12,
                        {10, 12, 14, 16, 18, 20},
                        {40, 60, 80, 100},
                        5,
                        150,
                        {10, 14, 20, 40},
                        kPaperLoadRatios,
                        3};
    case BenchScale::kDefault:
    default:
      return SweepScale{8,     {8, 10, 12}, {20, 40}, 3,
                        150,   {10, 20},    {1.0, 4.0}, 2};
  }
}

// Mean metric per policy over `trials` seeded runs (parallelized).
struct PolicySweepResult {
  std::vector<double> avg_response;  // Indexed like `policies`.
  std::vector<double> max_response;
};

inline PolicySweepResult RunPolicies(const std::vector<std::string>& policies,
                                     int ports, double load_ratio, int rounds,
                                     int trials, std::uint64_t base_seed) {
  PolicySweepResult out;
  out.avg_response.assign(policies.size(), 0.0);
  out.max_response.assign(policies.size(), 0.0);
  const int jobs = static_cast<int>(policies.size()) * trials;
#if defined(FLOWSCHED_HAVE_OPENMP)
#pragma omp parallel for schedule(dynamic)
#endif
  for (int job = 0; job < jobs; ++job) {
    const int pi = job / trials;
    const int trial = job % trials;
    PoissonConfig cfg;
    cfg.num_inputs = cfg.num_outputs = ports;
    cfg.mean_arrivals_per_round = load_ratio * ports;
    cfg.num_rounds = rounds;
    cfg.seed = base_seed + 1000003ULL * trial;
    const Instance instance = GeneratePoisson(cfg);
    auto policy = MakePolicy(policies[pi], cfg.seed);
    const SimulationResult r = Simulate(instance, *policy);
#if defined(FLOWSCHED_HAVE_OPENMP)
#pragma omp critical
#endif
    {
      out.avg_response[pi] += r.metrics.avg_response / trials;
      out.max_response[pi] += r.metrics.max_response / trials;
    }
  }
  return out;
}

// Opens bench_out/<name>.csv for results; directory created lazily.
inline std::ofstream OpenCsv(const std::string& name) {
  (void)std::system("mkdir -p bench_out");
  std::ofstream out("bench_out/" + name + ".csv");
  return out;
}

inline void PrintHeader(const std::string& title, const std::string& what) {
  std::cout << "\n=== " << title << " ===\n" << what << "\n";
}

}  // namespace flowsched::bench

#endif  // FLOWSCHED_BENCH_BENCH_COMMON_H_
