#include "tuner/miso_tuner.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "hv/hv_store.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "tuner/baseline_tuners.h"

namespace miso::tuner {
namespace {

using testing_util::PaperCatalog;
using views::View;
using views::ViewCatalog;

class MisoTunerTest : public ::testing::Test {
 protected:
  MisoTunerTest()
      : factory_(&PaperCatalog()),
        hv_model_(hv::HvConfig{}),
        dw_model_(dw::DwConfig{}),
        transfer_model_(transfer::TransferConfig{}),
        optimizer_(&factory_, &hv_model_, &dw_model_, &transfer_model_) {}

  MisoTunerConfig Config(Bytes bh, Bytes bd, Bytes bt) {
    MisoTunerConfig config;
    config.hv_storage_budget = bh;
    config.dw_storage_budget = bd;
    config.transfer_budget = bt;
    return config;
  }

  /// Runs a query in HV and fills `hv` with its opportunistic views.
  plan::Plan ExecuteAndHarvest(const std::string& name,
                               const std::string& topic, bool dw_udfs,
                               ViewCatalog* hv) {
    auto plan = *testing_util::MakeAnalystPlan(&PaperCatalog(), name, topic,
                                               0.1, dw_udfs);
    hv::HvStore store(hv::HvConfig{}, kTiB * 100);
    auto exec =
        store.Execute(plan.root(), 0, 0, &next_id_, plan.signature());
    EXPECT_TRUE(exec.ok());
    for (View& v : exec->produced_views) {
      EXPECT_TRUE(hv->AddUnchecked(std::move(v)).ok());
    }
    return plan;
  }

  plan::NodeFactory factory_;
  hv::HvCostModel hv_model_;
  dw::DwCostModel dw_model_;
  transfer::TransferModel transfer_model_;
  optimizer::MultistoreOptimizer optimizer_;
  uint64_t next_id_ = 1;
};

TEST_F(MisoTunerTest, EmptyCandidatesYieldEmptyPlan) {
  MisoTuner tuner(&optimizer_, Config(kTiB, kTiB, 10 * kGiB));
  ViewCatalog hv(kTiB);
  ViewCatalog dw(kTiB);
  auto plan = tuner.Tune(hv, dw, {});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->Empty());
}

TEST_F(MisoTunerTest, MovesBeneficialViewsToDwWithinBt) {
  ViewCatalog hv(100 * kTiB);
  ViewCatalog dw(400 * kGiB);
  plan::Plan q =
      ExecuteAndHarvest("q", "c%", /*dw_udfs=*/true, &hv);
  ASSERT_GT(hv.size(), 0);

  const Bytes bt = 10 * kGiB;
  MisoTuner tuner(&optimizer_, Config(100 * kTiB, 400 * kGiB, bt));
  auto plan = tuner.Tune(hv, dw, {q});
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->move_to_dw.empty())
      << "a DW-eligible chain should promote views";
  EXPECT_LE(plan->BytesToDw(), bt) << "transfer budget respected";
}

TEST_F(MisoTunerTest, DesignsStayDisjointAndWithinBudgets) {
  ViewCatalog hv(100 * kTiB);
  ViewCatalog dw(400 * kGiB);
  plan::Plan q1 = ExecuteAndHarvest("q1", "c%", true, &hv);
  plan::Plan q2 = ExecuteAndHarvest("q2", "d%", false, &hv);

  const Bytes bh = 60 * kGiB;
  const Bytes bd = 20 * kGiB;
  const Bytes bt = 10 * kGiB;
  MisoTuner tuner(&optimizer_, Config(bh, bd, bt));
  auto plan = tuner.Tune(hv, dw, {q1, q2});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ApplyReorgPlan(*plan, &hv, &dw).ok());

  EXPECT_LE(hv.used_bytes(), bh);
  EXPECT_LE(dw.used_bytes(), bd);
  EXPECT_LE(plan->BytesToDw() + plan->BytesToHv(), bt);

  std::set<views::ViewId> hv_ids;
  for (const View& v : hv.AllViews()) hv_ids.insert(v.id);
  for (const View& v : dw.AllViews()) {
    EXPECT_EQ(hv_ids.count(v.id), 0u) << "Vh and Vd must stay disjoint";
  }
}

TEST_F(MisoTunerTest, HvOnlyUdfViewsStayInHv) {
  // With store-specific benefits, views pinned below an HV-only UDF have
  // zero DW benefit and must not consume the transfer budget.
  ViewCatalog hv(100 * kTiB);
  ViewCatalog dw(400 * kGiB);
  plan::Plan q = ExecuteAndHarvest("q", "c%", /*dw_udfs=*/false, &hv);
  MisoTuner tuner(&optimizer_, Config(100 * kTiB, 400 * kGiB, 100 * kGiB));
  auto plan = tuner.Tune(hv, dw, {q});
  ASSERT_TRUE(plan.ok());
  // Views above the HV-only UDF chain (join2/udf2 outputs) may move; the
  // filtered inputs below it must not.
  for (const View& v : plan->move_to_dw) {
    EXPECT_EQ(v.base_signature, 0u)
        << "filtered (subsumable) views below the UDF should stay: "
        << v.DebugString();
  }
}

TEST_F(MisoTunerTest, RetainsUnselectedViewsWhileSpaceRemains) {
  ViewCatalog hv(100 * kTiB);
  ViewCatalog dw(400 * kGiB);
  plan::Plan q1 = ExecuteAndHarvest("q1", "c%", true, &hv);
  plan::Plan q2 = ExecuteAndHarvest("q2", "d%", true, &hv);
  const int before = hv.size() + dw.size();

  // Window only contains q2: q1's views have zero benefit but plenty of
  // space remains, so they must survive.
  MisoTuner tuner(&optimizer_, Config(100 * kTiB, 400 * kGiB, 10 * kGiB));
  auto plan = tuner.Tune(hv, dw, {q2});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->drop_from_hv.empty());
  ASSERT_TRUE(ApplyReorgPlan(*plan, &hv, &dw).ok());
  EXPECT_EQ(hv.size() + dw.size(), before);
}

TEST_F(MisoTunerTest, PaperLiteralModeDropsUnselectedViews) {
  ViewCatalog hv(100 * kTiB);
  ViewCatalog dw(400 * kGiB);
  plan::Plan q1 = ExecuteAndHarvest("q1", "c%", true, &hv);
  plan::Plan q2 = ExecuteAndHarvest("q2", "d%", true, &hv);

  MisoTunerConfig config = Config(100 * kTiB, 400 * kGiB, 10 * kGiB);
  config.retain_unselected_views = false;
  MisoTuner tuner(&optimizer_, config);
  auto plan = tuner.Tune(hv, dw, {q2});
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->drop_from_hv.empty())
      << "q1's zero-benefit views are dropped under Algorithm-1 literal "
         "semantics";
}

TEST_F(MisoTunerTest, TinyTransferBudgetBlocksMoves) {
  ViewCatalog hv(100 * kTiB);
  ViewCatalog dw(400 * kGiB);
  plan::Plan q = ExecuteAndHarvest("q", "c%", true, &hv);
  MisoTuner tuner(&optimizer_, Config(100 * kTiB, 400 * kGiB, /*bt=*/0));
  auto plan = tuner.Tune(hv, dw, {q});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->move_to_dw.empty());
  EXPECT_TRUE(plan->move_to_hv.empty());
}

TEST_F(MisoTunerTest, WhatIfCountersReportEachTunesMemoDeltas) {
  // The tuner owns its what-if memo for its lifetime, and every Tune
  // reports the probe level's hit/miss deltas. A repeat Tune over the same
  // window and designs is answered entirely by the memo.
  obs::ScopedMetrics metrics(true);
  ViewCatalog hv(100 * kTiB);
  ViewCatalog dw(400 * kGiB);
  const plan::Plan q1 = ExecuteAndHarvest("q1", "c%", /*dw_udfs=*/true, &hv);
  const plan::Plan q2 = ExecuteAndHarvest("q2", "d%", /*dw_udfs=*/true, &hv);
  MisoTuner tuner(&optimizer_, Config(100 * kTiB, 400 * kGiB, 10 * kGiB));
  obs::Counter* hits =
      obs::Metrics().GetCounter(obs::names::kWhatIfCacheHits);
  obs::Counter* misses =
      obs::Metrics().GetCounter(obs::names::kWhatIfCacheMisses);

  for (int call = 0; call < 2; ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    const optimizer::WhatIfCache::Stats before = tuner.whatif_stats();
    const int64_t hits_before = hits->value();
    const int64_t misses_before = misses->value();
    ASSERT_TRUE(tuner.Tune(hv, dw, {q1, q2, q1}).ok());
    const optimizer::WhatIfCache::Stats after = tuner.whatif_stats();
    EXPECT_EQ(hits->value() - hits_before, after.hits - before.hits);
    EXPECT_EQ(misses->value() - misses_before, after.misses - before.misses);
    if (call == 0) {
      EXPECT_GT(after.misses, before.misses);
    } else {
      EXPECT_EQ(after.misses, before.misses);
      EXPECT_GT(after.hits, before.hits);
    }
  }
  EXPECT_EQ(tuner.whatif_stats().evictions, 0);
}

TEST_F(MisoTunerTest, LruTunerKeepsMostRecentlyUsed) {
  MisoTunerConfig config = Config(/*bh=*/GiB(200), /*bd=*/GiB(3),
                                  /*bt=*/GiB(10));
  LruTuner tuner(config);
  ViewCatalog hv(GiB(200));
  ViewCatalog dw(GiB(3));
  for (uint64_t id = 1; id <= 5; ++id) {
    View v;
    v.id = id;
    v.size_bytes = GiB(2);
    v.signature = id;
    v.created_by_query = static_cast<int>(id);  // id 5 most recent
    ASSERT_TRUE(hv.AddUnchecked(v).ok());
  }
  auto plan = tuner.Tune(hv, dw);
  ASSERT_TRUE(plan.ok());
  // DW (3 GiB) fits exactly the single most recently used 2 GiB view.
  ASSERT_EQ(plan->move_to_dw.size(), 1u);
  EXPECT_EQ(plan->move_to_dw[0].id, 5u);
}

}  // namespace
}  // namespace miso::tuner
