// The dense rolling-row grid DP for M-KNAPSACK (paper §4.4.1): the
// textbook O(n * B * T) recurrence over the whole (B+1) x (T+1) budget
// plane. It is the specification `SolveMKnapsack`'s sparse frontier DP
// must reproduce bit for bit — same chosen set, same total down to the
// last ULP, same budget use — so the equivalence tests use it as their
// oracle. It allocates one double per cell plus one take-bit per (item,
// cell), so callers must keep the plane small.

#ifndef MISO_TESTS_TUNER_DENSE_KNAPSACK_ORACLE_H_
#define MISO_TESTS_TUNER_DENSE_KNAPSACK_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "tuner/knapsack.h"

namespace miso::tuner {

inline Result<MKnapsackSolution> DenseMKnapsackOracle(
    const std::vector<MKnapsackItem>& items, int64_t storage_budget_units,
    int64_t transfer_budget_units) {
  if (storage_budget_units < 0 || transfer_budget_units < 0) {
    return Status::InvalidArgument("knapsack budgets must be non-negative");
  }
  for (const MKnapsackItem& item : items) {
    if (item.storage_units < 0 || item.transfer_units < 0) {
      return Status::InvalidArgument("knapsack item weights must be >= 0");
    }
  }

  const int n = static_cast<int>(items.size());
  const int64_t kB = storage_budget_units;
  const int64_t kT = transfer_budget_units;
  const size_t plane =
      static_cast<size_t>(kB + 1) * static_cast<size_t>(kT + 1);

  // value[b * (T+1) + t]: best benefit using items[0..k) with b storage and
  // t transfer remaining capacity consumed at most. Rolling layers with a
  // per-(item, cell) take/skip bit for reconstruction.
  std::vector<double> value(plane, 0.0);
  std::vector<double> next(plane, 0.0);
  // take[k][cell]: whether item k is taken at that capacity.
  std::vector<std::vector<bool>> take(static_cast<size_t>(n));

  auto idx = [kT](int64_t b, int64_t t) {
    return static_cast<size_t>(b) * static_cast<size_t>(kT + 1) +
           static_cast<size_t>(t);
  };

  for (int k = 0; k < n; ++k) {
    const MKnapsackItem& item = items[static_cast<size_t>(k)];
    take[static_cast<size_t>(k)].assign(plane, false);
    for (int64_t b = 0; b <= kB; ++b) {
      for (int64_t t = 0; t <= kT; ++t) {
        const size_t cell = idx(b, t);
        double best = value[cell];  // skip item k
        const bool fits = item.storage_units <= b &&
                          item.transfer_units <= t;
        if (fits && item.benefit > 0) {
          const double with =
              value[idx(b - item.storage_units, t - item.transfer_units)] +
              item.benefit;
          if (with > best) {
            best = with;
            take[static_cast<size_t>(k)][cell] = true;
          }
        }
        next[cell] = best;
      }
    }
    std::swap(value, next);
  }

  // Reconstruct choices from the last item backwards.
  std::vector<int> chosen;
  int64_t b = kB;
  int64_t t = kT;
  for (int k = n - 1; k >= 0; --k) {
    if (take[static_cast<size_t>(k)][idx(b, t)]) {
      chosen.push_back(k);
      b -= items[static_cast<size_t>(k)].storage_units;
      t -= items[static_cast<size_t>(k)].transfer_units;
    }
  }
  std::reverse(chosen.begin(), chosen.end());

  // The total is the left-fold of the chosen benefits in item order, the
  // same expression the DP accumulated along its take-chain.
  MKnapsackSolution solution;
  for (int k : chosen) {
    const MKnapsackItem& item = items[static_cast<size_t>(k)];
    solution.chosen_ids.push_back(item.id);
    solution.total_benefit += item.benefit;
    solution.storage_used += item.storage_units;
    solution.transfer_used += item.transfer_units;
  }
  return solution;
}

/// `SolveMKnapsack` against the oracle: the exact chosen set, the exact
/// total (EXPECT_EQ on doubles, no tolerance) and the exact budget use.
inline void ExpectMatchesDenseOracle(const std::vector<MKnapsackItem>& items,
                                     int64_t storage_budget,
                                     int64_t transfer_budget) {
  SCOPED_TRACE("B=" + std::to_string(storage_budget) +
               " T=" + std::to_string(transfer_budget));
  auto dense = DenseMKnapsackOracle(items, storage_budget, transfer_budget);
  auto sparse = SolveMKnapsack(items, storage_budget, transfer_budget);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  EXPECT_EQ(sparse->chosen_ids, dense->chosen_ids);
  EXPECT_EQ(sparse->total_benefit, dense->total_benefit);
  EXPECT_EQ(sparse->storage_used, dense->storage_used);
  EXPECT_EQ(sparse->transfer_used, dense->transfer_used);
}

}  // namespace miso::tuner

#endif  // MISO_TESTS_TUNER_DENSE_KNAPSACK_ORACLE_H_
