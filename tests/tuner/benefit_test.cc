#include "tuner/benefit.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "hv/hv_cost_model.h"
#include "plan/node_factory.h"
#include "views/view.h"

namespace miso::tuner {
namespace {

using plan::NodePtr;
using plan::OpKind;
using testing_util::PaperCatalog;
using views::View;

class BenefitTest : public ::testing::Test {
 protected:
  BenefitTest()
      : factory_(&PaperCatalog()),
        hv_model_(hv::HvConfig{}),
        dw_model_(dw::DwConfig{}),
        transfer_model_(transfer::TransferConfig{}),
        optimizer_(&factory_, &hv_model_, &dw_model_, &transfer_model_) {}

  plan::Plan Query(const std::string& name, const std::string& topic) {
    return *testing_util::MakeAnalystPlan(&PaperCatalog(), name, topic, 0.1,
                                          /*udf_dw_compatible=*/true);
  }

  View UdfView(const plan::Plan& p, views::ViewId id) {
    for (const NodePtr& node : p.PostOrder()) {
      if (node->kind() == OpKind::kUdf) {
        View v = views::ViewFromNode(*node);
        v.id = id;
        return v;
      }
    }
    return View{};
  }

  plan::NodeFactory factory_;
  hv::HvCostModel hv_model_;
  dw::DwCostModel dw_model_;
  transfer::TransferModel transfer_model_;
  optimizer::MultistoreOptimizer optimizer_;
};

TEST_F(BenefitTest, EpochDecayWeights) {
  BenefitAnalyzer analyzer(&optimizer_, /*epoch_len=*/3, /*decay=*/0.5);
  std::vector<plan::Plan> window(6, Query("q", "c%"));
  ASSERT_TRUE(analyzer.SetWindow(window).ok());
  // Oldest 3 queries are one epoch old (weight 0.5); newest 3 weight 1.
  EXPECT_DOUBLE_EQ(analyzer.Weight(0), 0.5);
  EXPECT_DOUBLE_EQ(analyzer.Weight(2), 0.5);
  EXPECT_DOUBLE_EQ(analyzer.Weight(3), 1.0);
  EXPECT_DOUBLE_EQ(analyzer.Weight(5), 1.0);
}

TEST_F(BenefitTest, RelevantViewHasPositiveBenefit) {
  BenefitAnalyzer analyzer(&optimizer_, 3, 0.6);
  plan::Plan q = Query("q", "c%");
  ASSERT_TRUE(analyzer.SetWindow({q}).ok());
  View v = UdfView(q, 1);
  auto benefits = analyzer.PerQueryBenefit({v}, Placement::kBothStores);
  ASSERT_TRUE(benefits.ok());
  ASSERT_EQ(benefits->size(), 1u);
  EXPECT_GT((*benefits)[0], 1000)
      << "the UDF view answers most of its creator query";
}

TEST_F(BenefitTest, IrrelevantViewHasZeroBenefit) {
  BenefitAnalyzer analyzer(&optimizer_, 3, 0.6);
  plan::Plan q1 = Query("q1", "c%");
  plan::Plan q2 = Query("q2", "zzz%");  // different topic: no reuse
  ASSERT_TRUE(analyzer.SetWindow({q2}).ok());
  View v = UdfView(q1, 1);
  auto benefits = analyzer.PerQueryBenefit({v}, Placement::kBothStores);
  ASSERT_TRUE(benefits.ok());
  EXPECT_DOUBLE_EQ((*benefits)[0], 0.0);
}

TEST_F(BenefitTest, DwPlacementBeatsHvPlacement) {
  // For a DW-eligible chain, the view is worth more in the DW (execution
  // asymmetry), which is what drives the DW-first packing.
  BenefitAnalyzer analyzer(&optimizer_, 3, 0.6);
  plan::Plan q = Query("q", "c%");
  ASSERT_TRUE(analyzer.SetWindow({q}).ok());
  View v = UdfView(q, 1);
  auto dw = analyzer.PredictedBenefit({v}, Placement::kDwOnly);
  auto hv = analyzer.PredictedBenefit({v}, Placement::kHvOnly);
  ASSERT_TRUE(dw.ok());
  ASSERT_TRUE(hv.ok());
  EXPECT_GT(*dw, *hv);
  EXPECT_GT(*hv, 0);
}

TEST_F(BenefitTest, HvOnlyUdfMakesDwPlacementWorthless) {
  // A filtered view below an HV-only UDF cannot be used from the DW at
  // all: its DW-only benefit must be zero while its HV benefit is not.
  auto q = *testing_util::MakeAnalystPlan(&PaperCatalog(), "q", "c%", 0.1,
                                          /*udf_dw_compatible=*/false);
  View filtered;
  for (const NodePtr& node : q.PostOrder()) {
    if (node->kind() == OpKind::kFilter &&
        node->output_schema().HasField("topic")) {
      filtered = views::ViewFromNode(*node);
      filtered.id = 1;
    }
  }
  BenefitAnalyzer analyzer(&optimizer_, 3, 0.6);
  ASSERT_TRUE(analyzer.SetWindow({q}).ok());
  auto dw = analyzer.PredictedBenefit({filtered}, Placement::kDwOnly);
  auto hv = analyzer.PredictedBenefit({filtered}, Placement::kHvOnly);
  ASSERT_TRUE(dw.ok());
  ASSERT_TRUE(hv.ok());
  EXPECT_DOUBLE_EQ(*dw, 0.0);
  EXPECT_GT(*hv, 0.0);
}

TEST_F(BenefitTest, DecayedTotalWeighsRecentQueriesMore) {
  BenefitAnalyzer analyzer(&optimizer_, /*epoch_len=*/1, /*decay=*/0.1);
  plan::Plan hit = Query("hit", "c%");
  plan::Plan miss = Query("miss", "zzz%");
  View v = UdfView(hit, 1);

  // Hit in the newest epoch -> full weight.
  ASSERT_TRUE(analyzer.SetWindow({miss, hit}).ok());
  auto recent = analyzer.PredictedBenefit({v}, Placement::kBothStores);
  // Hit in the oldest epoch -> decayed weight.
  BenefitAnalyzer analyzer2(&optimizer_, 1, 0.1);
  ASSERT_TRUE(analyzer2.SetWindow({hit, miss}).ok());
  auto old = analyzer2.PredictedBenefit({v}, Placement::kBothStores);
  ASSERT_TRUE(recent.ok());
  ASSERT_TRUE(old.ok());
  EXPECT_GT(*recent, 5.0 * *old);
}

TEST_F(BenefitTest, JointBenefitOfSubstitutesIsSubAdditive) {
  plan::Plan q = Query("q", "c%");
  // Two views along the same chain substitute for each other.
  View udf_view = UdfView(q, 1);
  View join_view;
  for (const NodePtr& node : q.PostOrder()) {
    if (node->kind() == OpKind::kJoin) {
      join_view = views::ViewFromNode(*node);
      join_view.id = 2;
      break;
    }
  }
  BenefitAnalyzer analyzer(&optimizer_, 3, 0.6);
  ASSERT_TRUE(analyzer.SetWindow({q}).ok());
  auto both = analyzer.PredictedBenefit({udf_view, join_view},
                                        Placement::kBothStores);
  auto a = analyzer.PredictedBenefit({udf_view}, Placement::kBothStores);
  auto b = analyzer.PredictedBenefit({join_view}, Placement::kBothStores);
  ASSERT_TRUE(both.ok());
  EXPECT_LT(*both, *a + *b - 1.0) << "strongly negative interaction";
}

TEST_F(BenefitTest, PairRowFromSinglesProbesIsExact) {
  // A probe's memo key fingerprints only the members relevant to the
  // query, so when each query sees one member of a pair, the pair row is
  // answered entirely by the single-view probes already memoized. That
  // must be invisible in the results: the row equals the one a fresh
  // analyzer computes by probing the pair directly.
  plan::Plan q1 = Query("q1", "c%");
  plan::Plan q2 = Query("q2", "d%");  // disjoint topic: only v2 relevant
  View v1 = UdfView(q1, 1);
  View v2 = UdfView(q2, 2);

  optimizer::WhatIfCache memo;
  BenefitAnalyzer memoized(&optimizer_, 3, 0.6, &memo);
  ASSERT_TRUE(memoized.SetWindow({q1, q2}).ok());
  ASSERT_TRUE(memoized.PerQueryBenefit({v1}, Placement::kBothStores).ok());
  ASSERT_TRUE(memoized.PerQueryBenefit({v2}, Placement::kBothStores).ok());
  const int64_t misses_after_singles = memo.GetStats().misses;
  auto from_singles =
      memoized.PerQueryBenefit({v1, v2}, Placement::kBothStores);
  EXPECT_EQ(memo.GetStats().misses, misses_after_singles)
      << "every pair probe must hit a single-view entry";

  BenefitAnalyzer fresh(&optimizer_, 3, 0.6);
  ASSERT_TRUE(fresh.SetWindow({q1, q2}).ok());
  auto direct = fresh.PerQueryBenefit({v1, v2}, Placement::kBothStores);

  ASSERT_TRUE(from_singles.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(from_singles->size(), direct->size());
  for (size_t i = 0; i < from_singles->size(); ++i) {
    EXPECT_EQ((*from_singles)[i], (*direct)[i]) << "query " << i;
  }
  // And the singles had something to answer: each view is relevant to
  // exactly one of the two queries.
  EXPECT_GT((*from_singles)[0], 0.0);
  EXPECT_GT((*from_singles)[1], 0.0);
}

TEST_F(BenefitTest, RelevantMaskMatchesPerQueryRelevance) {
  plan::Plan q1 = Query("q1", "c%");
  plan::Plan q2 = Query("q2", "zzz%");  // nothing reusable
  View v = UdfView(q1, 1);
  BenefitAnalyzer analyzer(&optimizer_, 3, 0.6);
  ASSERT_TRUE(analyzer.SetWindow({q1, q2, q1}).ok());
  const std::vector<uint64_t> mask = analyzer.RelevantMask(v);
  ASSERT_EQ(mask.size(), 1u);
  EXPECT_EQ(mask[0], 0b101u) << "relevant to the two q1 copies only";
}

}  // namespace
}  // namespace miso::tuner
