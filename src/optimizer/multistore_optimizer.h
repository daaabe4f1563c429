#ifndef MISO_OPTIMIZER_MULTISTORE_OPTIMIZER_H_
#define MISO_OPTIMIZER_MULTISTORE_OPTIMIZER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "dw/dw_cost_model.h"
#include "hv/hv_cost_model.h"
#include "optimizer/multistore_plan.h"
#include "optimizer/split_enumerator.h"
#include "optimizer/whatif_cache.h"
#include "transfer/transfer_model.h"
#include "views/rewriter.h"
#include "views/view_catalog.h"

namespace miso::optimizer {

/// Per-call planning context. `dw_available = false` models a DW outage:
/// the optimizer degrades gracefully, re-planning the query as the best
/// HV-only split (HV views still usable) instead of erroring — queries
/// keep completing, just slower, and the degradation shows up in the
/// per-query cost anatomy rather than as a failure.
struct OptimizeOptions {
  bool dw_available = true;
};

/// The multistore query optimizer (paper §3.1). Given a query and the
/// current (or hypothetical) multistore design, it:
///
///  1. generates candidate rewrites — using both stores' views (DW
///     preferred), using HV views only, and using no views (the rewrite
///     with DW views may admit no feasible split when a DW view sits below
///     an HV-only UDF, hence the fallbacks);
///  2. enumerates the feasible splits of each rewrite;
///  3. costs every (rewrite, split) pair with the store cost models plus
///     the transfer model, in common units (seconds);
///  4. returns the cheapest.
///
/// The same code path serves as the what-if optimizer: pass hypothetical
/// view catalogs to cost a design without materializing it (§3.1's
/// "what-if mode").
///
/// Candidate evaluation (step 3) optionally fans out over a `ThreadPool`
/// (`set_thread_pool`): every (rewrite, split) pair costs independently
/// against the immutable plan nodes and const cost models, each result
/// lands in its own slot, and the winner is reduced serially in candidate
/// order with the same strict-< comparison as the serial loop — so the
/// chosen plan and its costs are bit-identical for every thread count.
class MultistoreOptimizer {
 public:
  MultistoreOptimizer(const plan::NodeFactory* factory,
                      const hv::HvCostModel* hv_model,
                      const dw::DwCostModel* dw_model,
                      const transfer::TransferModel* transfer_model)
      : rewriter_(factory),
        hv_model_(hv_model),
        dw_model_(dw_model),
        transfer_model_(transfer_model) {}

  /// Best multistore plan for `query` under the design (dw_views,
  /// hv_views).
  Result<MultistorePlan> Optimize(const plan::Plan& query,
                                  const views::ViewCatalog& dw_views,
                                  const views::ViewCatalog& hv_views) const;

  /// As above, under explicit planning context (e.g. DW outage).
  Result<MultistorePlan> Optimize(const plan::Plan& query,
                                  const views::ViewCatalog& dw_views,
                                  const views::ViewCatalog& hv_views,
                                  const OptimizeOptions& options) const;

  /// Best HV-confined plan (no split). `use_views` selects whether HV
  /// views may be used (HV-OP variant) or not (plain HV-ONLY).
  Result<MultistorePlan> OptimizeHvOnly(const plan::Plan& query,
                                        const views::ViewCatalog& hv_views,
                                        bool use_views) const;

  /// Every feasible (rewrite-free) split of `query`, costed — the plan
  /// population behind Figure 3.
  Result<std::vector<MultistorePlan>> EnumerateAllPlans(
      const plan::Plan& query) const;

  /// What-if interface: total cost of the best plan under a hypothetical
  /// design (paper: cost(q, M)).
  Result<Seconds> WhatIfCost(const plan::Plan& query,
                             const views::ViewCatalog& dw_views,
                             const views::ViewCatalog& hv_views) const;

  /// As above, resolving each rewrite variant's best-split total through
  /// `memo`'s variant level (non-null). Returns exactly what the memo-free
  /// overload returns — the memo only changes how much enumeration and
  /// costing the answer costs. Takes the plain path when verification is
  /// enabled (the verified path re-checks every winning probe plan, which
  /// a memo hit would skip).
  Result<Seconds> WhatIfCost(const plan::Plan& query,
                             const views::ViewCatalog& dw_views,
                             const views::ViewCatalog& hv_views,
                             WhatIfCache* memo) const;

  /// Costs one concrete (rewritten plan, split) pair.
  Result<MultistorePlan> CostSplit(const plan::Plan& executed,
                                   const SplitCandidate& split) const;

  /// Installs (or clears, with nullptr) the pool used to cost candidate
  /// splits concurrently. The pool is borrowed, not owned; it must
  /// outlive every Optimize/WhatIfCost call.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

 private:
  /// Memo of HV-side subtree costs shared by the candidates of one
  /// enumeration: the same cut subtree heads the HV side of many splits,
  /// and its cost is a pure function of the immutable subtree.
  using HvSubtreeCosts =
      std::unordered_map<const plan::OperatorNode*, Result<Seconds>>;

  /// Enumerates and costs all splits of `executed`, returning the
  /// cheapest; error when no feasible split exists.
  Result<MultistorePlan> BestSplit(const plan::Plan& executed) const;

  /// `CostSplit` with the shared-subtree memo; public 2-arg `CostSplit`
  /// passes null (compute directly).
  Result<MultistorePlan> CostSplit(const plan::Plan& executed,
                                   const SplitCandidate& split,
                                   const HvSubtreeCosts* hv_costs) const;

  /// One `SubtreeCost` per distinct non-leaf cut subtree (plus the plan
  /// root when some candidate is HV-only), computed serially in candidate
  /// order before the costing fan-out. Dedup only — every stored Result is
  /// one the serial path would compute for some candidate.
  HvSubtreeCosts PrecomputeHvSubtreeCosts(
      const plan::Plan& executed,
      const std::vector<SplitCandidate>& candidates) const;

  views::Rewriter rewriter_;
  const hv::HvCostModel* hv_model_;
  const dw::DwCostModel* dw_model_;
  const transfer::TransferModel* transfer_model_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace miso::optimizer

#endif  // MISO_OPTIMIZER_MULTISTORE_OPTIMIZER_H_
