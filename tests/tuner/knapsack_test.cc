#include "tuner/knapsack.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "common/units.h"
#include "dense_knapsack_oracle.h"

namespace miso::tuner {
namespace {

MKnapsackItem Item(int id, int64_t storage, int64_t transfer,
                   double benefit) {
  MKnapsackItem item;
  item.id = id;
  item.storage_units = storage;
  item.transfer_units = transfer;
  item.benefit = benefit;
  return item;
}

TEST(ToBudgetUnitsTest, RoundsUp) {
  EXPECT_EQ(ToBudgetUnits(0, kGiB), 0);
  EXPECT_EQ(ToBudgetUnits(1, kGiB), 1);
  EXPECT_EQ(ToBudgetUnits(kGiB, kGiB), 1);
  EXPECT_EQ(ToBudgetUnits(kGiB + 1, kGiB), 2);
  EXPECT_EQ(ToBudgetUnits(-5, kGiB), 0);
}

TEST(KnapsackTest, EmptyInstance) {
  auto solution = SolveMKnapsack({}, 10, 10);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->chosen_ids.empty());
  EXPECT_DOUBLE_EQ(solution->total_benefit, 0);
}

TEST(KnapsackTest, NegativeBudgetRejected) {
  EXPECT_FALSE(SolveMKnapsack({}, -1, 0).ok());
  EXPECT_FALSE(SolveMKnapsack({Item(0, -1, 0, 1)}, 10, 10).ok());
}

TEST(KnapsackTest, PacksEverythingWhenRoomy) {
  std::vector<MKnapsackItem> items = {Item(0, 2, 1, 5.0), Item(1, 3, 0, 7.0),
                                      Item(2, 1, 1, 2.0)};
  auto solution = SolveMKnapsack(items, 100, 100);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->chosen_ids.size(), 3u);
  EXPECT_DOUBLE_EQ(solution->total_benefit, 14.0);
  EXPECT_EQ(solution->storage_used, 6);
  EXPECT_EQ(solution->transfer_used, 2);
}

TEST(KnapsackTest, StorageDimensionBinds) {
  std::vector<MKnapsackItem> items = {Item(0, 6, 0, 10.0),
                                      Item(1, 5, 0, 6.0),
                                      Item(2, 5, 0, 6.0)};
  auto solution = SolveMKnapsack(items, 10, 0);
  ASSERT_TRUE(solution.ok());
  // 5+5 = 12 beats the single 10.
  EXPECT_DOUBLE_EQ(solution->total_benefit, 12.0);
  EXPECT_EQ(solution->chosen_ids, (std::vector<int>{1, 2}));
}

TEST(KnapsackTest, TransferDimensionBinds) {
  // Both fit storage; transfer budget admits only one (paper §4.4.1 Case
  // 1: HV-resident views consume Bt).
  std::vector<MKnapsackItem> items = {Item(0, 1, 8, 10.0),
                                      Item(1, 1, 8, 9.0)};
  auto solution = SolveMKnapsack(items, 10, 10);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->chosen_ids, (std::vector<int>{0}));
}

TEST(KnapsackTest, ZeroTransferItemsIgnoreTransferBudget) {
  // Paper §4.4.1 Case 2: views already in the target store need no
  // transfer and must be packable with Bt exhausted.
  std::vector<MKnapsackItem> items = {Item(0, 4, 0, 3.0),
                                      Item(1, 4, 0, 3.0)};
  auto solution = SolveMKnapsack(items, 10, 0);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->chosen_ids.size(), 2u);
}

TEST(KnapsackTest, NonPositiveBenefitNeverPacked) {
  std::vector<MKnapsackItem> items = {Item(0, 1, 0, 0.0),
                                      Item(1, 1, 0, -5.0),
                                      Item(2, 1, 0, 1.0)};
  auto solution = SolveMKnapsack(items, 10, 10);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->chosen_ids, (std::vector<int>{2}));
}

TEST(KnapsackTest, ZeroSizeItemsAlwaysFit) {
  std::vector<MKnapsackItem> items = {Item(0, 0, 0, 1.0),
                                      Item(1, 0, 0, 1.0)};
  auto solution = SolveMKnapsack(items, 0, 0);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->chosen_ids.size(), 2u);
}

// ---- Sparse/dense equivalence: same set, bit-identical total. -----------

TEST(KnapsackSparseTest, MatchesDenseOnDegenerateBudgets) {
  const std::vector<MKnapsackItem> items = {
      Item(0, 0, 0, 1.5), Item(1, 1, 0, 2.0), Item(2, 1, 1, 2.0),
      Item(3, 3, 2, -1.0), Item(4, 2, 1, 4.0)};
  ExpectMatchesDenseOracle(items, 0, 0);
  ExpectMatchesDenseOracle(items, 1, 0);
  ExpectMatchesDenseOracle(items, 0, 1);
  ExpectMatchesDenseOracle(items, 1, 1);
}

TEST(KnapsackSparseTest, HandlesBudgetsTheDensePlaneCannotAllocate) {
  // INT64_MAX budgets: the dense plane would be ~10^37 cells. The sparse
  // solver's suffix-slack clamp collapses both dimensions to a single
  // state and packs every positive item.
  const std::vector<MKnapsackItem> items = {
      Item(0, kGiB, kMiB, 3.0), Item(1, 4 * kGiB, 0, 1.0),
      Item(2, 2 * kGiB, kGiB, -2.0)};
  const int64_t huge = std::numeric_limits<int64_t>::max();
  auto solution = SolveMKnapsack(items, huge, huge);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->chosen_ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(solution->total_benefit, 4.0);
}

TEST(KnapsackSparseTest, TieBreakMatchesDenseSkipOnTie) {
  // Two indistinguishable items and room for one: the dense DP takes an
  // item only when it strictly improves, so the *later* cell update keeps
  // the earlier item. The sparse reconstruction must replicate that
  // choice, not merely the total.
  const std::vector<MKnapsackItem> items = {Item(0, 2, 0, 5.0),
                                            Item(1, 2, 0, 5.0)};
  ExpectMatchesDenseOracle(items, 2, 0);
  auto dense = DenseMKnapsackOracle(items, 2, 0);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->chosen_ids, (std::vector<int>{0}));
}

// ---- Property: DP matches exhaustive search on random instances. -------

double BruteForceBest(const std::vector<MKnapsackItem>& items, int64_t b,
                      int64_t t) {
  const int n = static_cast<int>(items.size());
  double best = 0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    int64_t storage = 0;
    int64_t transfer = 0;
    double benefit = 0;
    for (int k = 0; k < n; ++k) {
      if ((mask >> k) & 1) {
        storage += items[static_cast<size_t>(k)].storage_units;
        transfer += items[static_cast<size_t>(k)].transfer_units;
        benefit += items[static_cast<size_t>(k)].benefit;
      }
    }
    if (storage <= b && transfer <= t) best = std::max(best, benefit);
  }
  return best;
}

class KnapsackPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KnapsackPropertyTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const int n = static_cast<int>(rng.Uniform(1, 12));
    std::vector<MKnapsackItem> items;
    for (int k = 0; k < n; ++k) {
      items.push_back(Item(k, rng.Uniform(0, 8), rng.Uniform(0, 5),
                           rng.UniformReal(-2.0, 10.0)));
    }
    const int64_t b = rng.Uniform(0, 20);
    const int64_t t = rng.Uniform(0, 8);
    auto solution = SolveMKnapsack(items, b, t);
    ASSERT_TRUE(solution.ok());
    EXPECT_NEAR(solution->total_benefit, BruteForceBest(items, b, t), 1e-9)
        << "n=" << n << " b=" << b << " t=" << t << " seed=" << GetParam();
    // The reconstructed choice must be consistent and within budget.
    int64_t storage = 0;
    int64_t transfer = 0;
    double benefit = 0;
    for (int id : solution->chosen_ids) {
      storage += items[static_cast<size_t>(id)].storage_units;
      transfer += items[static_cast<size_t>(id)].transfer_units;
      benefit += items[static_cast<size_t>(id)].benefit;
    }
    EXPECT_LE(storage, b);
    EXPECT_LE(transfer, t);
    EXPECT_NEAR(benefit, solution->total_benefit, 1e-9);
    EXPECT_EQ(storage, solution->storage_used);
    EXPECT_EQ(transfer, solution->transfer_used);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace miso::tuner
