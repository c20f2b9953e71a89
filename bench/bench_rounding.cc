// Group-rounding audit: distribution of capacity violations
// across workload families, against the paper's 2*dmax - 1 bound. Our
// substituted rounder only proves < 4*dmax in the worst case, so this bench
// is the evidence that the paper's constant holds in practice.
#include <iostream>

#include "bench_common.h"
#include "core/group_rounding.h"
#include "workload/patterns.h"

namespace flowsched::bench {
namespace {

struct Family {
  std::string name;
  Instance instance;
};

std::vector<Family> Families(BenchScale bs) {
  const int trials = bs == BenchScale::kQuick ? 2 : 5;
  std::vector<Family> out;
  for (int trial = 0; trial < trials; ++trial) {
    for (const Capacity dmax : {Capacity{1}, Capacity{2}, Capacity{4}}) {
      PoissonConfig cfg;
      cfg.num_inputs = cfg.num_outputs = 6;
      cfg.port_capacity = std::max<Capacity>(2 * dmax, 2);
      cfg.max_demand = dmax;
      cfg.mean_arrivals_per_round = 12.0;
      cfg.num_rounds = 5;
      cfg.seed = 7000 + 13 * trial + static_cast<int>(dmax);
      out.push_back({"poisson_d" + std::to_string(dmax), GeneratePoisson(cfg)});
    }
    {
      Instance incast(SwitchSpec::Uniform(8, 8), {});
      AddIncast(incast, trial % 8, 8, 0);
      AddIncast(incast, (trial + 3) % 8, 6, 1);
      out.push_back({"incast", std::move(incast)});
    }
    {
      out.push_back({"shuffle", ShuffleWaves(6, 5, 3, 2)});
    }
  }
  return out;
}

void Run() {
  auto file = OpenCsv("rounding_audit");
  CsvWriter csv(file);
  csv.Row("family", "n", "dmax", "rho", "violation", "bound", "relaxed_rows",
          "hard_drops", "lp_solves");
  PrintHeader("Group rounding audit",
              "violations vs the paper's 2*dmax-1 across workload families");
  TextTable table({"family", "n", "dmax", "rho", "violation", "bound",
                   "relaxed", "hard_drops", "lp_solves"});
  Capacity worst_gap = 0;  // violation - bound; must stay <= 0.
  for (Family& family : Families(GetBenchScale())) {
    const Instance& instance = family.instance;
    if (instance.num_flows() == 0) continue;
    Round rho = 4;
    TimeConstrainedSolution sol;
    for (;;) {
      sol = SolveTimeConstrained(instance,
                                 WindowsForMaxResponse(instance, rho));
      if (sol.feasible) break;
      rho *= 2;
    }
    GroupRoundingReport report;
    const ActiveWindows windows = WindowsForMaxResponse(instance, rho);
    const Schedule schedule = GroupRound(instance, windows, sol, {}, &report);
    (void)schedule;
    worst_gap = std::max(worst_gap, report.max_violation - report.bound);
    table.Row(family.name, instance.num_flows(),
              static_cast<long long>(instance.MaxDemand()), rho,
              static_cast<long long>(report.max_violation),
              static_cast<long long>(report.bound), report.relaxed_rows,
              report.hard_drops, report.lp_solves);
    csv.Row(family.name, instance.num_flows(),
            static_cast<long long>(instance.MaxDemand()), rho,
            static_cast<long long>(report.max_violation),
            static_cast<long long>(report.bound), report.relaxed_rows,
            report.hard_drops, report.lp_solves);
  }
  table.Print(std::cout);
  std::cout << "\nWorst (violation - bound) over all runs: " << worst_gap
            << (worst_gap <= 0 ? "  [within the paper's 2*dmax-1]" : "  [EXCEEDED]")
            << "\nCSV: bench_out/rounding_audit.csv\n";
}

}  // namespace
}  // namespace flowsched::bench

int main() {
  flowsched::bench::Run();
  return 0;
}
