#include "util/stable_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace flowsched {
namespace {

using Item = std::pair<int, int>;  // (key, input position)

bool KeyLess(const Item& a, const Item& b) { return a.first < b.first; }

// Against std::stable_sort on inputs with many equal keys, sizes around
// the run length and merge widths, and sorted / reversed / random orders:
// the same permutation, so equal keys keep their input order.
TEST(StableSortTest, MatchesStdStableSort) {
  Rng rng(11);
  std::vector<Item> v, expected, scratch;
  for (int n : {0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300, 1000}) {
    for (int keys : {1, 3, 50}) {
      for (int shape = 0; shape < 3; ++shape) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " keys=" << keys
                                        << " shape=" << shape);
        v.clear();
        for (int i = 0; i < n; ++i) {
          const int key = shape == 0   ? rng.UniformInt(0, keys - 1)
                          : shape == 1 ? i * keys / std::max(n, 1)
                                       : (n - i) * keys / std::max(n, 1);
          v.emplace_back(key, i);
        }
        expected = v;
        std::stable_sort(expected.begin(), expected.end(), KeyLess);
        StableSort(v, scratch, KeyLess);
        EXPECT_EQ(v, expected);
      }
    }
  }
}

}  // namespace
}  // namespace flowsched
