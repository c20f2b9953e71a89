// Baseline policies beyond the paper's three: FIFO-greedy packing (works for
// general demands) and uniformly random greedy packing.
#ifndef FLOWSCHED_CORE_ONLINE_SIMPLE_POLICIES_H_
#define FLOWSCHED_CORE_ONLINE_SIMPLE_POLICIES_H_

#include "core/online/policy.h"
#include "util/rng.h"

namespace flowsched {

// Shared greedy-packing scratch: an order buffer plus residual port
// capacities, reused across rounds.
class GreedyPackPolicyBase : public SchedulingPolicy {
 protected:
  // Packs pending flows in order_ into *picked, respecting residuals.
  void Pack(const SwitchSpec& sw, std::span<const PendingFlow> pending,
            std::vector<int>* picked);

  std::vector<int> order_;

 private:
  std::vector<Capacity> in_res_;
  std::vector<Capacity> out_res_;
};

// Scans the backlog by (release, id) and packs every flow that still fits
// the residual capacities. 3-2/m-competitive flavor of FIFO for Rmax.
class FifoGreedyPolicy : public GreedyPackPolicyBase {
 public:
  std::string_view name() const override { return "fifo"; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;

 private:
  std::vector<int> sort_scratch_;
};

// Greedy packing in uniformly random order; a sanity floor for experiments.
class RandomPolicy : public GreedyPackPolicyBase {
 public:
  explicit RandomPolicy(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  std::string_view name() const override { return "random"; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;
  void Reset() override { rng_ = Rng(seed_); }

 private:
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_SIMPLE_POLICIES_H_
