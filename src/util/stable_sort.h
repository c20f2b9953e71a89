// Stable sort with caller-owned scratch, for per-round hot loops.
//
// std::stable_sort allocates a temporary buffer on every call, so a policy
// that sorts its backlog each round allocates once per round, which breaks
// the zero-allocation round contract (docs/architecture.md). std::sort
// avoids the buffer but is measurably slower on the nearly sorted backlogs
// the policies see. StableSort is the same bottom-up merge sort libstdc++
// runs (insertion-sorted runs, then pairwise merges through a buffer), with
// the buffer kept by the caller across calls: it allocates only while
// `v` grows past its previous peak. Merges of runs already in order are
// plain copies, so a sorted input costs one comparison per run pair.
#ifndef FLOWSCHED_UTIL_STABLE_SORT_H_
#define FLOWSCHED_UTIL_STABLE_SORT_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace flowsched {

// Sorts `v` by `less`, keeping equivalent elements in input order.
// `scratch` is working storage; its contents on return are unspecified.
template <typename T, typename Less>
void StableSort(std::vector<T>& v, std::vector<T>& scratch, Less less) {
  constexpr std::size_t kRun = 8;
  const std::size_t n = v.size();
  for (std::size_t lo = 0; lo < n; lo += kRun) {
    const std::size_t hi = std::min(lo + kRun, n);
    for (std::size_t i = lo + 1; i < hi; ++i) {
      T x = std::move(v[i]);
      std::size_t j = i;
      for (; j > lo && less(x, v[j - 1]); --j) v[j] = std::move(v[j - 1]);
      v[j] = std::move(x);
    }
  }
  if (n <= kRun) return;
  scratch.resize(n);
  for (std::size_t width = kRun; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const auto first = v.begin() + lo;
      const auto mid = v.begin() + std::min(lo + width, n);
      const auto last = v.begin() + std::min(lo + 2 * width, n);
      if (mid == last || !less(*mid, *(mid - 1))) {
        std::copy(first, last, scratch.begin() + lo);
      } else {
        std::merge(first, mid, mid, last, scratch.begin() + lo, less);
      }
    }
    v.swap(scratch);
  }
}

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_STABLE_SORT_H_
