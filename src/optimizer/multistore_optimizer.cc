#include "optimizer/multistore_optimizer.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/hash.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "verify/plan_verifier.h"
#include "verify/verify_gate.h"

namespace miso::optimizer {

using plan::NodePtr;
using plan::OpKind;

namespace {

/// Depth of what-if probing on this thread. The tuner's benefit analyzer
/// costs thousands of hypothetical designs per reorg through the very
/// same `Optimize` path as real queries; without this guard every probe
/// would emit an `optimizer.plan_choice` trace line and drown the
/// decisions the trace exists to explain. Counters still count probes —
/// their totals are deterministic either way.
thread_local int t_whatif_depth = 0;

struct WhatIfScope {
  WhatIfScope() { ++t_whatif_depth; }
  ~WhatIfScope() { --t_whatif_depth; }
};

/// Batch size for parallel candidate costing. One `CostSplit` is a few
/// microseconds of tree-walking — far below the cost of scheduling a pool
/// task — so candidates are costed in batches: a typical query's whole
/// candidate list (tens of splits) runs inline, and only genuinely large
/// enumerations fan out. docs/PERFORMANCE.md records the calibration.
constexpr ParallelForOptions kCostingBatch{/*grain=*/16};

/// Structural identity of a (possibly rewritten) plan tree for the
/// what-if memo's variant level. Covers, per node, every field the split
/// enumerator and the cost models read — operator kind, the canonical
/// subexpression signature, output stats, DW-executability, the ViewScan
/// content signature and store, UDF cost parameters, and the filter
/// selectivity the DW index-pruning rule applies — recursively over the
/// children in order. Two trees with equal hashes therefore cost
/// identically in every split, so a memoized best-split total transfers
/// exactly (modulo 64-bit collisions, the `WhatIfCache::Fingerprint`
/// contract this repo already relies on).
uint64_t StructuralPlanHash(const NodePtr& node) {
  uint64_t h = HashCombine(static_cast<uint64_t>(node->kind()),
                           node->signature());
  h = HashCombine(h, static_cast<uint64_t>(node->stats().rows));
  h = HashCombine(h, static_cast<uint64_t>(node->stats().bytes));
  h = HashCombine(h, node->dw_executable() ? 1 : 0);
  switch (node->kind()) {
    case OpKind::kViewScan:
      h = HashCombine(h, node->view_scan().view_signature);
      h = HashCombine(h, static_cast<uint64_t>(node->view_scan().store));
      break;
    case OpKind::kUdf:
      h = HashCombine(h, std::bit_cast<uint64_t>(node->udf().cpu_factor));
      h = HashCombine(h, std::bit_cast<uint64_t>(node->udf().size_factor));
      h = HashCombine(h,
                      std::bit_cast<uint64_t>(node->udf().row_selectivity));
      break;
    case OpKind::kFilter:
      h = HashCombine(h, std::bit_cast<uint64_t>(
                             node->filter().predicate.Selectivity()));
      break;
    default:
      break;
  }
  for (const NodePtr& child : node->children()) {
    h = HashCombine(h, StructuralPlanHash(child));
  }
  return h;
}

/// The five-part cost anatomy of Fig. 3 — HV prefix, dump, network
/// transfer, DW load, DW suffix. `CostBreakdown` folds network+load into
/// one `transfer_load_s` figure; the transfer model's `TransferBreakdown`
/// recovers the split from the plan's working-set size.
void AddAnatomyFields(obs::TraceEvent& event, const MultistorePlan& plan,
                      const transfer::TransferModel& transfer_model) {
  const transfer::TransferBreakdown tb =
      transfer_model.WorkingSetTransfer(plan.transferred_bytes);
  event.Int("dw_ops", static_cast<int64_t>(plan.dw_side.size()))
      .Int("cut_inputs", static_cast<int64_t>(plan.cut_inputs.size()))
      .Int("transferred_bytes", static_cast<int64_t>(plan.transferred_bytes))
      .Double("hv_exec_s", plan.cost.hv_exec_s)
      .Double("dump_s", tb.dump_s)
      .Double("transfer_s", tb.network_s)
      .Double("load_s", tb.load_s)
      .Double("dw_exec_s", plan.cost.dw_exec_s)
      .Double("total_s", plan.cost.Total());
}

}  // namespace

Result<MultistorePlan> MultistoreOptimizer::CostSplit(
    const plan::Plan& executed, const SplitCandidate& split) const {
  return CostSplit(executed, split, /*hv_costs=*/nullptr);
}

Result<MultistorePlan> MultistoreOptimizer::CostSplit(
    const plan::Plan& executed, const SplitCandidate& split,
    const HvSubtreeCosts* hv_costs) const {
  // The same cut subtree heads many candidates of one enumeration, and its
  // HV cost is a pure function of the immutable subtree; when the caller
  // precomputed the shared memo, look the Result up instead of re-walking.
  const auto subtree_cost = [&](const NodePtr& node) -> Result<Seconds> {
    if (hv_costs != nullptr) {
      const auto it = hv_costs->find(node.get());
      if (it != hv_costs->end()) return it->second;
    }
    return hv_model_->SubtreeCost(node);
  };

  MultistorePlan ms;
  ms.executed = executed;
  ms.dw_side = split.dw_side;
  ms.cut_inputs = split.cut_inputs;

  // HV side: each cut input heads an HV-executed subtree; when the DW side
  // is empty the whole plan runs in HV.
  if (split.dw_side.empty()) {
    MISO_ASSIGN_OR_RETURN(Seconds hv_cost, subtree_cost(executed.root()));
    ms.cost.hv_exec_s = hv_cost;
    return ms;
  }

  for (const NodePtr& cut : split.cut_inputs) {
    ms.transferred_bytes += cut->stats().bytes;
    if (cut->kind() == OpKind::kScan || cut->kind() == OpKind::kViewScan) {
      // A bare Scan / HV ViewScan cut input does no computation, but
      // exporting HDFS-resident data still runs a map-only Hadoop job
      // (startup + task-wave floor + the read itself). This is exactly
      // why placing a view in DW beats dumping it on demand every query.
      const hv::HvConfig& hv_config = hv_model_->config();
      const Seconds read =
          static_cast<double>(cut->stats().bytes) /
          hv_config.ClusterRate(hv_config.inter_read_mbps);
      ms.cost.hv_exec_s += hv_config.job_startup_s +
                           std::max(read, hv_config.job_min_work_s);
    } else {
      MISO_ASSIGN_OR_RETURN(Seconds hv_cost, subtree_cost(cut));
      ms.cost.hv_exec_s += hv_cost;
    }
  }

  const transfer::TransferBreakdown tb =
      transfer_model_->WorkingSetTransfer(ms.transferred_bytes);
  ms.cost.dump_s = tb.dump_s;
  ms.cost.transfer_load_s = tb.network_s + tb.load_s;

  std::unordered_set<const plan::OperatorNode*> dw_set = ms.DwSideSet();
  std::unordered_set<const plan::OperatorNode*> temp_inputs;
  for (const NodePtr& cut : split.cut_inputs) temp_inputs.insert(cut.get());
  MISO_ASSIGN_OR_RETURN(Seconds dw_cost,
                        dw_model_->CostDwSide(dw_set, temp_inputs));
  ms.cost.dw_exec_s = dw_cost;
  return ms;
}

MultistoreOptimizer::HvSubtreeCosts
MultistoreOptimizer::PrecomputeHvSubtreeCosts(
    const plan::Plan& executed,
    const std::vector<SplitCandidate>& candidates) const {
  HvSubtreeCosts costs;
  for (const SplitCandidate& split : candidates) {
    if (split.dw_side.empty()) {
      if (costs.find(executed.root().get()) == costs.end()) {
        costs.emplace(executed.root().get(),
                      hv_model_->SubtreeCost(executed.root()));
      }
      continue;
    }
    for (const NodePtr& cut : split.cut_inputs) {
      // Leaf cut inputs (Scan / ViewScan) use the map-only export formula
      // in CostSplit, not SubtreeCost — skip them here too.
      if (cut->kind() == OpKind::kScan || cut->kind() == OpKind::kViewScan) {
        continue;
      }
      if (costs.find(cut.get()) == costs.end()) {
        costs.emplace(cut.get(), hv_model_->SubtreeCost(cut));
      }
    }
  }
  return costs;
}

Result<MultistorePlan> MultistoreOptimizer::BestSplit(
    const plan::Plan& executed) const {
  MISO_ASSIGN_OR_RETURN(std::vector<SplitCandidate> candidates,
                        EnumerateSplits(executed.root(),
                                        /*max_candidates=*/100000, pool_));
  // One SubtreeCost per distinct cut subtree, shared by every candidate it
  // heads (dedup of pure recomputation — each stored Result is exactly what
  // the per-candidate walk would produce).
  const HvSubtreeCosts hv_costs =
      PrecomputeHvSubtreeCosts(executed, candidates);
  // Cost every candidate into its own slot (independent work over
  // immutable inputs), then reduce serially in candidate order: the
  // strict < keeps the earliest minimum, and errors surface for the
  // lowest-indexed failing candidate — both exactly as the serial loop.
  std::vector<Result<MultistorePlan>> costed(
      candidates.size(), Status::Internal("candidate not costed"));
  ParallelFor(
      pool_, static_cast<int>(candidates.size()),
      [&](int i) {
        costed[static_cast<size_t>(i)] = CostSplit(
            executed, candidates[static_cast<size_t>(i)], &hv_costs);
      },
      kCostingBatch);
  if (obs::MetricsOn()) {
    obs::Metrics()
        .GetCounter(obs::names::kCandidatesCosted)
        ->Add(static_cast<int64_t>(costed.size()));
  }
  Result<MultistorePlan> best =
      Status::Internal("no candidate produced a costable plan");
  for (Result<MultistorePlan>& candidate : costed) {
    if (!candidate.ok()) return candidate.status();
    if (!best.ok() || candidate->cost.Total() < best->cost.Total()) {
      best = std::move(candidate);
    }
  }
  return best;
}

Result<MultistorePlan> MultistoreOptimizer::Optimize(
    const plan::Plan& query, const views::ViewCatalog& dw_views,
    const views::ViewCatalog& hv_views) const {
  return Optimize(query, dw_views, hv_views, OptimizeOptions{});
}

Result<MultistorePlan> MultistoreOptimizer::Optimize(
    const plan::Plan& query, const views::ViewCatalog& dw_views,
    const views::ViewCatalog& hv_views, const OptimizeOptions& options) const {
  // Graceful degradation under a DW outage: no DW views, no split — the
  // whole query runs in HV, still exploiting HV-resident views.
  if (!options.dw_available) {
    return OptimizeHvOnly(query, hv_views, /*use_views=*/true);
  }
  Result<MultistorePlan> best =
      Status::Internal("optimizer produced no plan");

  // Rewrite variants, strongest first. A DW-view rewrite can be split-
  // infeasible (DW view below an HV-only UDF); later variants always admit
  // at least the HV-only split.
  views::RewriteReport report;
  Result<plan::Plan> with_both =
      rewriter_.Rewrite(query, dw_views, hv_views, &report);
  MISO_RETURN_IF_ERROR(with_both.status());
  // DW-views-only: a shallow HV match can shadow deeper DW matches in the
  // combined rewrite (the rewriter replaces the largest subtree first), so
  // the DW-only rewrite exposes plans that run deeper inside the DW.
  Result<plan::Plan> with_dw = rewriter_.RewriteSingleStore(
      query, dw_views, StoreKind::kDw, /*report=*/nullptr);
  MISO_RETURN_IF_ERROR(with_dw.status());
  Result<plan::Plan> with_hv = rewriter_.RewriteSingleStore(
      query, hv_views, StoreKind::kHv, /*report=*/nullptr);
  MISO_RETURN_IF_ERROR(with_hv.status());

  // Rewrites preserve canonical identity, so signatures cannot distinguish
  // the variants — but a rewrite that changed nothing hands back the
  // query's own root node, so pointer-equal roots are the same tree and
  // would yield byte-identical BestSplit results. Skipping them keeps the
  // first occurrence, which the strict-< reduce would keep anyway.
  const plan::Plan* all_variants[4] = {&with_both.value(), &with_dw.value(),
                                       &with_hv.value(), &query};
  const plan::Plan* variants[4];
  int num_variants = 0;
  for (const plan::Plan* variant : all_variants) {
    bool duplicate = false;
    for (int i = 0; i < num_variants; ++i) {
      duplicate = duplicate || variants[i]->root().get() ==
                                   variant->root().get();
    }
    if (!duplicate) variants[num_variants++] = variant;
  }

  for (int v = 0; v < num_variants; ++v) {
    const plan::Plan* variant = variants[v];
    Result<MultistorePlan> candidate = BestSplit(*variant);
    if (!candidate.ok()) {
      if (candidate.status().code() == StatusCode::kFailedPrecondition) {
        continue;  // this rewrite admits no feasible split
      }
      return candidate.status();
    }
    if (!best.ok() || candidate->cost.Total() < best->cost.Total()) {
      best = std::move(candidate);
    }
  }
  // Debug-mode assertion: the winning plan must verify, including every
  // ViewScan resolving in the catalog of the store it claims (the split
  // enumerator already verified each candidate's shape).
  if (best.ok() && verify::Enabled()) {
    verify::PlanVerifierOptions options;
    options.hv_views = &hv_views;
    options.dw_views = &dw_views;
    MISO_RETURN_IF_ERROR(verify::VerifyMultistorePlan(*best, options));
  }
  // Serial point: Optimize runs on the calling thread (only candidate
  // costing fans out above), so emission here is deterministic.
  if (best.ok()) {
    if (obs::MetricsOn()) {
      obs::MetricsRegistry& registry = obs::Metrics();
      registry.GetCounter(obs::names::kOptimizeCalls)->Increment();
      // Like the plan_choice trace line below, the histogram skips what-if
      // probes: probes may execute on pool workers (the tuner's Prewarm
      // fan-out), and a histogram's floating-point sum is only
      // deterministic when observed serially. Counters commute, so
      // optimize_calls/whatif_probes stay probe-inclusive.
      if (t_whatif_depth == 0) {
        registry
            .GetHistogram(obs::names::kChosenPlanSeconds,
                          obs::SecondsBuckets())
            ->Observe(best->cost.Total());
      }
    }
    if (obs::TraceOn() && t_whatif_depth == 0) {
      obs::TraceEvent event(obs::names::kEvPlanChoice);
      event.Bool("hv_only", best->HvOnly());
      AddAnatomyFields(event, *best, *transfer_model_);
      obs::Emit(event);
    }
  }
  return best;
}

Result<MultistorePlan> MultistoreOptimizer::OptimizeHvOnly(
    const plan::Plan& query, const views::ViewCatalog& hv_views,
    bool use_views) const {
  plan::Plan executed = query;
  if (use_views) {
    MISO_ASSIGN_OR_RETURN(
        executed, rewriter_.RewriteSingleStore(query, hv_views, StoreKind::kHv,
                                               /*report=*/nullptr));
  }
  SplitCandidate hv_only;  // empty DW side
  Result<MultistorePlan> costed = CostSplit(executed, hv_only);
  if (costed.ok() && verify::Enabled()) {
    verify::PlanVerifierOptions options;
    options.hv_views = &hv_views;
    MISO_RETURN_IF_ERROR(verify::VerifyMultistorePlan(*costed, options));
  }
  return costed;
}

Result<std::vector<MultistorePlan>> MultistoreOptimizer::EnumerateAllPlans(
    const plan::Plan& query) const {
  MISO_ASSIGN_OR_RETURN(std::vector<SplitCandidate> candidates,
                        EnumerateSplits(query.root(),
                                        /*max_candidates=*/100000, pool_));
  const HvSubtreeCosts hv_costs = PrecomputeHvSubtreeCosts(query, candidates);
  // Per-candidate costing + verification is independent; slots keep the
  // enumeration order, so the returned population is bit-identical to
  // the serial path for any thread count.
  std::vector<Result<MultistorePlan>> costed(
      candidates.size(), Status::Internal("candidate not costed"));
  ParallelFor(
      pool_, static_cast<int>(candidates.size()),
      [&](int i) {
        Result<MultistorePlan> one = CostSplit(
            query, candidates[static_cast<size_t>(i)], &hv_costs);
        if (one.ok() && verify::Enabled()) {
          const Status verdict = verify::VerifyMultistorePlan(*one);
          if (!verdict.ok()) one = verdict;
        }
        costed[static_cast<size_t>(i)] = std::move(one);
      },
      kCostingBatch);
  if (obs::MetricsOn()) {
    obs::Metrics()
        .GetCounter(obs::names::kCandidatesCosted)
        ->Add(static_cast<int64_t>(costed.size()));
  }
  std::vector<MultistorePlan> plans;
  plans.reserve(costed.size());
  for (Result<MultistorePlan>& one : costed) {
    if (!one.ok()) return one.status();
    plans.push_back(std::move(*one));
  }
  // The per-plan trace behind Fig. 3: one `plan_costed` line per feasible
  // split, emitted from this serial merge loop in enumeration order.
  if (obs::TraceOn() && t_whatif_depth == 0) {
    for (size_t i = 0; i < plans.size(); ++i) {
      obs::TraceEvent event(obs::names::kEvPlanCosted);
      event.Int("index", static_cast<int64_t>(i));
      event.Double("dw_fraction", plans[i].DwOperatorFraction());
      AddAnatomyFields(event, plans[i], *transfer_model_);
      obs::Emit(event);
    }
  }
  return plans;
}

Result<Seconds> MultistoreOptimizer::WhatIfCost(
    const plan::Plan& query, const views::ViewCatalog& dw_views,
    const views::ViewCatalog& hv_views) const {
  WhatIfScope probe;  // suppress per-probe plan_choice trace lines
  if (obs::MetricsOn()) {
    obs::Metrics().GetCounter(obs::names::kWhatIfProbes)->Increment();
  }
  MISO_ASSIGN_OR_RETURN(MultistorePlan best,
                        Optimize(query, dw_views, hv_views));
  return best.cost.Total();
}

Result<Seconds> MultistoreOptimizer::WhatIfCost(
    const plan::Plan& query, const views::ViewCatalog& dw_views,
    const views::ViewCatalog& hv_views, WhatIfCache* memo) const {
  // The verified path re-checks every winning probe plan against the probe
  // catalogs; a memo hit has no plan to verify, so verification builds use
  // the plain path (and get the plain path's exact behavior).
  if (verify::Enabled()) {
    return WhatIfCost(query, dw_views, hv_views);
  }
  WhatIfScope probe;  // suppress per-probe plan_choice trace lines
  if (obs::MetricsOn()) {
    obs::Metrics().GetCounter(obs::names::kWhatIfProbes)->Increment();
  }
  // Same variant set and reduction as Optimize; only the total of each
  // variant's best split is needed, and that total is a pure function of
  // the variant tree, so each resolves through the memo's variant level.
  // Variants provably identical to another are skipped before even
  // rewriting:
  //  - an empty catalog never matches (`TryStore` finds nothing), so its
  //    single-store rewrite is the bare query, and the combined rewrite
  //    collapses to the other store's single-store rewrite;
  //  - `TryStore`'s choice is a function of (node, catalog) only — the
  //    store argument just tags the spliced ViewScan — so with the *same*
  //    catalog on both stores the combined rewrite (DW preferred at every
  //    node) picks exactly the DW-only rewrite's matches.
  // What-if probes hit these shapes constantly (a hypothetical design is
  // the same candidate set in one or both stores); Optimize keeps the full
  // four-variant evaluation, whose winner must carry a concrete plan.
  const bool dw_empty = dw_views.empty();
  const bool hv_empty = hv_views.empty();
  std::optional<plan::Plan> with_both;
  std::optional<plan::Plan> with_dw;
  std::optional<plan::Plan> with_hv;
  if (!dw_empty) {
    MISO_ASSIGN_OR_RETURN(
        with_dw, rewriter_.RewriteSingleStore(query, dw_views, StoreKind::kDw,
                                              /*report=*/nullptr));
  }
  if (!hv_empty) {
    MISO_ASSIGN_OR_RETURN(
        with_hv, rewriter_.RewriteSingleStore(query, hv_views, StoreKind::kHv,
                                              /*report=*/nullptr));
  }
  if (!dw_empty && !hv_empty && &dw_views != &hv_views) {
    MISO_ASSIGN_OR_RETURN(
        with_both, rewriter_.Rewrite(query, dw_views, hv_views,
                                     /*report=*/nullptr));
  }
  const plan::Plan* all_variants[4] = {
      with_both.has_value() ? &*with_both : nullptr,
      with_dw.has_value() ? &*with_dw : nullptr,
      with_hv.has_value() ? &*with_hv : nullptr, &query};
  const plan::Plan* variants[4];
  int num_variants = 0;
  for (const plan::Plan* variant : all_variants) {
    if (variant == nullptr) continue;
    bool duplicate = false;
    for (int i = 0; i < num_variants; ++i) {
      duplicate = duplicate || variants[i]->root().get() ==
                                   variant->root().get();
    }
    if (!duplicate) variants[num_variants++] = variant;
  }
  Result<Seconds> best = Status::Internal("optimizer produced no plan");
  for (int v = 0; v < num_variants; ++v) {
    const plan::Plan& variant = *variants[v];
    Result<Seconds> total =
        memo->VariantTotal(StructuralPlanHash(variant.root()), [&] {
          Result<MultistorePlan> split = BestSplit(variant);
          return split.ok() ? Result<Seconds>(split->cost.Total())
                            : Result<Seconds>(split.status());
        });
    if (!total.ok()) {
      if (total.status().code() == StatusCode::kFailedPrecondition) {
        continue;  // this rewrite admits no feasible split
      }
      return total.status();
    }
    if (!best.ok() || *total < *best) best = total;
  }
  return best;
}

}  // namespace miso::optimizer
