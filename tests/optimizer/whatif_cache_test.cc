#include "optimizer/whatif_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "../test_util.h"
#include "dw/dw_cost_model.h"
#include "hv/hv_cost_model.h"
#include "hv/hv_store.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "optimizer/multistore_optimizer.h"
#include "plan/node_factory.h"
#include "transfer/transfer_model.h"
#include "tuner/benefit.h"
#include "verify/verify_gate.h"
#include "views/view.h"
#include "views/view_catalog.h"

namespace miso::optimizer {
namespace {

using plan::NodePtr;
using plan::OpKind;
using testing_util::PaperCatalog;
using views::View;

class WhatIfCacheTest : public ::testing::Test {
 protected:
  WhatIfCacheTest()
      : factory_(&PaperCatalog()),
        hv_model_(hv::HvConfig{}),
        dw_model_(dw::DwConfig{}),
        transfer_model_(transfer::TransferConfig{}),
        optimizer_(&factory_, &hv_model_, &dw_model_, &transfer_model_) {}

  plan::Plan Query(const std::string& name, const std::string& topic) {
    return *testing_util::MakeAnalystPlan(&PaperCatalog(), name, topic, 0.1,
                                          /*udf_dw_compatible=*/true);
  }

  static View ViewOf(const plan::Plan& p, OpKind kind, views::ViewId id) {
    for (const NodePtr& node : p.PostOrder()) {
      if (node->kind() == kind) {
        View v = views::ViewFromNode(*node);
        v.id = id;
        return v;
      }
    }
    return View{};
  }

  static WhatIfKey Key(uint64_t q, uint64_t dw, uint64_t hv) {
    WhatIfKey key;
    key.query_signature = q;
    key.dw_fingerprint = dw;
    key.hv_fingerprint = hv;
    return key;
  }

  plan::NodeFactory factory_;
  hv::HvCostModel hv_model_;
  dw::DwCostModel dw_model_;
  transfer::TransferModel transfer_model_;
  MultistoreOptimizer optimizer_;
};

TEST_F(WhatIfCacheTest, FingerprintIgnoresIdsAndIrrelevantViews) {
  plan::Plan q = Query("q", "c%");
  plan::Plan other = Query("other", "zzz%");
  const QueryShape shape = QueryShape::Of(q);

  View relevant = ViewOf(q, OpKind::kUdf, 1);
  View irrelevant = ViewOf(other, OpKind::kUdf, 2);
  ASSERT_TRUE(shape.Relevant(relevant));
  ASSERT_FALSE(shape.Relevant(irrelevant));

  const uint64_t base = WhatIfCache::Fingerprint(shape, {relevant});

  // Ids are materialization accidents, never cost inputs: a re-harvested
  // copy of the same view must land on the same fingerprint.
  View renumbered = relevant;
  renumbered.id = 999;
  EXPECT_EQ(WhatIfCache::Fingerprint(shape, {renumbered}), base);

  // Views the rewriter can never splice into q don't widen the key.
  EXPECT_EQ(WhatIfCache::Fingerprint(shape, {relevant, irrelevant}), base);
  EXPECT_EQ(WhatIfCache::Fingerprint(shape, {irrelevant}),
            WhatIfCache::EmptyFingerprint());

  // Anything the cost model can see (here: materialized size) must change
  // the fingerprint.
  View resized = relevant;
  resized.size_bytes += 1;
  EXPECT_NE(WhatIfCache::Fingerprint(shape, {resized}), base);

  // Order independence: the fingerprint hashes an unordered set.
  View joined = ViewOf(q, OpKind::kJoin, 3);
  ASSERT_TRUE(shape.Relevant(joined));
  EXPECT_EQ(WhatIfCache::Fingerprint(shape, {relevant, joined}),
            WhatIfCache::Fingerprint(shape, {joined, relevant}));
}

TEST_F(WhatIfCacheTest, LookupReturnsBitIdenticalCost) {
  WhatIfCache cache;
  // A cost with a non-trivial mantissa: the memo must hand back the exact
  // stored double, not a reformatted approximation.
  const Seconds cost = 12345.6789012345678;
  EXPECT_FALSE(cache.Lookup(Key(1, 2, 3)).has_value());
  cache.Insert(Key(1, 2, 3), cost);
  auto hit = cache.Lookup(Key(1, 2, 3));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(std::memcmp(&*hit, &cost, sizeof(Seconds)), 0);

  const WhatIfCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.entries, 1);
}

TEST_F(WhatIfCacheTest, ResetsAtEntryCapAndCountsEvictions) {
  WhatIfCache cache;
  const auto cap = static_cast<int64_t>(WhatIfCache::kMaxEntries);
  for (int64_t i = 0; i < cap; ++i) {
    cache.Insert(Key(static_cast<uint64_t>(i), 0, 0), static_cast<double>(i));
  }
  EXPECT_EQ(cache.GetStats().entries, cap);
  EXPECT_EQ(cache.GetStats().evictions, 0) << "the cap itself still fits";

  // One insert past the cap drops every resident entry, counted as
  // evictions, and keeps only the newcomer.
  cache.Insert(Key(static_cast<uint64_t>(cap), 0, 0), -1.0);
  const WhatIfCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, cap);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_FALSE(cache.Lookup(Key(0, 0, 0)).has_value());
  EXPECT_FALSE(cache.Lookup(Key(static_cast<uint64_t>(cap - 1), 0, 0))
                   .has_value());
  ASSERT_TRUE(cache.Lookup(Key(static_cast<uint64_t>(cap), 0, 0)).has_value());
  EXPECT_EQ(*cache.Lookup(Key(static_cast<uint64_t>(cap), 0, 0)), -1.0);
}

TEST_F(WhatIfCacheTest, WarmProbeIsByteIdenticalToColdProbe) {
  plan::Plan q1 = Query("q1", "c%");
  plan::Plan q2 = Query("q2", "e%");
  const std::vector<plan::Plan> window = {q1, q2, q1};
  const std::vector<View> set = {ViewOf(q1, OpKind::kUdf, 1),
                                 ViewOf(q2, OpKind::kJoin, 2)};

  // Reference: an analyzer with its own private (cold) memo.
  tuner::BenefitAnalyzer standalone(&optimizer_, 3, 0.6);
  ASSERT_TRUE(standalone.SetWindow(window).ok());
  auto reference =
      standalone.PerQueryBenefit(set, tuner::Placement::kBothStores);
  ASSERT_TRUE(reference.ok());

  WhatIfCache cache;

  // Cold pass fills the memo; a fresh analyzer sharing it (its row memo
  // empty, as after a reorg) must answer purely from probe-level hits
  // with bit-identical benefits.
  tuner::BenefitAnalyzer cold(&optimizer_, 3, 0.6, &cache);
  ASSERT_TRUE(cold.SetWindow(window).ok());
  auto cold_benefits = cold.PerQueryBenefit(set, tuner::Placement::kBothStores);
  ASSERT_TRUE(cold_benefits.ok());
  const WhatIfCache::Stats after_cold = cache.GetStats();
  EXPECT_GT(after_cold.misses, 0);

  tuner::BenefitAnalyzer warm(&optimizer_, 3, 0.6, &cache);
  ASSERT_TRUE(warm.SetWindow(window).ok());
  auto warm_benefits = warm.PerQueryBenefit(set, tuner::Placement::kBothStores);
  ASSERT_TRUE(warm_benefits.ok());
  const WhatIfCache::Stats warm_stats = cache.GetStats();
  EXPECT_GT(warm_stats.hits, after_cold.hits);
  EXPECT_EQ(warm_stats.misses, after_cold.misses)
      << "warm pass must not reach the optimizer";

  ASSERT_EQ(reference->size(), window.size());
  ASSERT_EQ(cold_benefits->size(), window.size());
  ASSERT_EQ(warm_benefits->size(), window.size());
  for (size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(std::memcmp(&(*reference)[i], &(*cold_benefits)[i],
                          sizeof(double)),
              0)
        << "query " << i;
    EXPECT_EQ(std::memcmp(&(*reference)[i], &(*warm_benefits)[i],
                          sizeof(double)),
              0)
        << "query " << i;
  }
}

/// Variant-level exactness: the memoized what-if path (`WhatIfCost` with a
/// memo) must return bit-identical totals to the plain path for every
/// catalog shape the tuner probes with — same catalog in both stores,
/// single-store, empty, and two genuinely different catalogs — on both
/// the miss (first probe) and hit (repeat probe) sides.
class WhatIfCacheVariantTest : public WhatIfCacheTest {
 protected:
  WhatIfCacheVariantTest() : empty_(kTiB) {
    // Harvest realistic opportunistic views from a few executed queries
    // (the same way the tuner's candidate pool is built).
    const char* topics[] = {"c%", "d%", "m%"};
    uint64_t next_id = 1;
    for (int q = 0; q < 3; ++q) {
      auto plan = *testing_util::MakeAnalystPlan(
          &PaperCatalog(), "s" + std::to_string(q), topics[q], 0.1,
          /*dw_udfs=*/true);
      hv::HvStore store(hv::HvConfig{}, kTiB * 100);
      auto exec = store.Execute(plan.root(), q, 0, &next_id,
                                plan.signature());
      EXPECT_TRUE(exec.ok()) << exec.status().ToString();
      for (View& v : exec->produced_views) views_.push_back(std::move(v));
      queries_.push_back(std::move(plan));
    }
  }

  views::ViewCatalog CatalogOf(const std::vector<View>& views) const {
    views::ViewCatalog catalog(kTiB * 100);
    for (const View& v : views) EXPECT_TRUE(catalog.AddUnchecked(v).ok());
    return catalog;
  }

  views::ViewCatalog empty_;
  std::vector<plan::Plan> queries_;
  std::vector<View> views_;
};

TEST_F(WhatIfCacheVariantTest, MemoTotalsMatchThePlainPathExactly) {
  // Verification off: the memo path only runs when probes skip the
  // per-plan verifier (ctest pins MISO_VERIFY=1, which would bypass it).
  verify::ScopedVerification off(false);
  ASSERT_GE(views_.size(), 2u);
  const views::ViewCatalog hypothetical = CatalogOf(views_);
  const views::ViewCatalog first = CatalogOf({views_[0]});
  const views::ViewCatalog second = CatalogOf({views_[1]});

  WhatIfCache memo;
  for (const plan::Plan& q : queries_) {
    struct Shape {
      const char* name;
      const views::ViewCatalog* dw;
      const views::ViewCatalog* hv;
    };
    // Every catalog shape the benefit analyzer produces, plus genuinely
    // different catalogs per store (exercises the combined rewrite).
    const Shape shapes[] = {
        {"both stores, same catalog", &hypothetical, &hypothetical},
        {"dw only", &hypothetical, &empty_},
        {"hv only", &empty_, &hypothetical},
        {"empty design", &empty_, &empty_},
        {"different catalogs", &first, &second},
    };
    for (const Shape& shape : shapes) {
      SCOPED_TRACE(std::string(q.query_name()) + ": " + shape.name);
      auto plain = optimizer_.WhatIfCost(q, *shape.dw, *shape.hv);
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      // Miss side: first probe of this shape through the memo.
      auto miss = optimizer_.WhatIfCost(q, *shape.dw, *shape.hv, &memo);
      ASSERT_TRUE(miss.ok()) << miss.status().ToString();
      EXPECT_EQ(*plain, *miss);
      // Hit side: a repeat probe resolves every variant from the memo.
      auto hit = optimizer_.WhatIfCost(q, *shape.dw, *shape.hv, &memo);
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      EXPECT_EQ(*plain, *hit);
    }
  }
}

TEST_F(WhatIfCacheVariantTest, VariantsKeyOnContentNotViewIds) {
  verify::ScopedVerification off(false);
  obs::ScopedMetrics metrics(true);
  // Two catalogs built independently from the same views (fresh objects,
  // re-numbered ids) rewrite into variants that differ only in ViewScan
  // ids, which no cost reads: the second catalog's probes must reuse the
  // first's variant entries (no new split enumeration) and return the
  // same answers.
  std::vector<View> renumbered = views_;
  for (size_t i = 0; i < renumbered.size(); ++i) {
    renumbered[i].id = 1000 + i;
  }
  const views::ViewCatalog a = CatalogOf(views_);
  const views::ViewCatalog b = CatalogOf(renumbered);

  obs::Counter* splits =
      obs::Metrics().GetCounter(obs::names::kSplitsEnumerated);
  WhatIfCache memo;
  for (const plan::Plan& q : queries_) {
    auto via_a = optimizer_.WhatIfCost(q, a, a, &memo);
    const int64_t splits_after_a = splits->value();
    auto via_b = optimizer_.WhatIfCost(q, b, b, &memo);
    ASSERT_TRUE(via_a.ok() && via_b.ok());
    EXPECT_EQ(splits->value(), splits_after_a) << q.query_name();
    EXPECT_EQ(*via_a, *via_b);
    auto plain = optimizer_.WhatIfCost(q, a, a);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(*plain, *via_a);
  }
  EXPECT_GT(splits->value(), 0) << "the first catalog's probes must solve";
}

TEST_F(WhatIfCacheVariantTest, MemoPathDefersToVerifiedBuilds) {
  // Under verification (the ctest default) the memo overload must behave
  // exactly like the plain overload — the verified path re-checks every
  // winning probe plan, which a memo hit could not.
  verify::ScopedVerification on(true);
  const views::ViewCatalog hypothetical = CatalogOf(views_);
  WhatIfCache memo;
  for (const plan::Plan& q : queries_) {
    auto plain = optimizer_.WhatIfCost(q, hypothetical, hypothetical);
    auto gated = optimizer_.WhatIfCost(q, hypothetical, hypothetical, &memo);
    ASSERT_TRUE(plain.ok() && gated.ok());
    EXPECT_EQ(*plain, *gated);
  }
}

}  // namespace
}  // namespace miso::optimizer
