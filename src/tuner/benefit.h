#ifndef MISO_TUNER_BENEFIT_H_
#define MISO_TUNER_BENEFIT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "optimizer/multistore_optimizer.h"
#include "optimizer/whatif_cache.h"
#include "views/view.h"

namespace miso::tuner {

/// Where a candidate set is hypothetically placed for a what-if probe.
enum class Placement { kBothStores, kDwOnly, kHvOnly };

/// Computes view benefits with the what-if optimizer, weighted by the
/// predicted-future-benefit scheme of §4.3 (adapted from Schnaitter et
/// al.): the recent-history window is divided into epochs of `epoch_len`
/// queries; the benefit a view showed for a query is decayed by
/// `decay^epoch_age`, so recent epochs dominate while older history still
/// counts.
///
/// Benefits are measured against the *empty* design: the tuner repacks
/// both stores from scratch each reorganization, so each candidate's value
/// is what it saves relative to having no views at all.
///
/// Probe economy. Three layers avoid or shrink optimizer work:
///   1. a relevance fast path — a query that no view of the set could
///      ever rewrite (QueryShape::Relevant) has benefit 0 by construction,
///      with no probe and no memo access at all;
///   2. a per-window memo of whole benefit rows under a hashed set key;
///   3. the `optimizer::WhatIfCache` memo, shared with the owning tuner
///      and so kept across reorganizations: its probe level answers a
///      (query, relevant-subset fingerprints, placement) probe outright,
///      and inside probes that do reach the optimizer its variant level
///      memoizes best-split totals by rewrite *variant* — distinct probes
///      share most of their rewritten plans, so a cold pass's first probes
///      pay for the enumeration and every later probe reuses the totals.
/// All three are exact: a warm or cold memo (or `Prewarm`) never changes
/// a returned benefit, only how much work it costs.
///
/// Threading: every public method must be called from the single tuner
/// thread. `Prewarm` is the only entry point that fans out — it computes
/// missing probe costs into private slots over a `ThreadPool` and then
/// memoizes serially, in deterministic order, so results *and* memo
/// hit/miss/eviction counts are identical for every `MISO_THREADS`.
class BenefitAnalyzer {
 public:
  /// `whatif`, when given, is a caller-owned memo that outlives this
  /// analyzer — the tuner passes its own so successive reorganizations
  /// reuse each other's probes and best-split solves (both are window- and
  /// design-independent). Null means a private memo confined to this
  /// analyzer's lifetime.
  BenefitAnalyzer(const optimizer::MultistoreOptimizer* opt, int epoch_len,
                  double decay, optimizer::WhatIfCache* whatif = nullptr)
      : optimizer_(opt),
        epoch_len_(epoch_len),
        decay_(decay),
        whatif_(whatif != nullptr ? whatif : &own_whatif_) {}

  /// Sets the workload window, ordered oldest -> newest, and precomputes
  /// per-query base costs (empty design).
  Status SetWindow(std::vector<plan::Plan> window);

  int window_size() const { return static_cast<int>(window_.size()); }

  /// Decay weight of the window query at `pos` (0 = oldest). The newest
  /// epoch has weight 1.
  double Weight(int pos) const;

  /// Per-query (undecayed) benefit of hypothetically materializing `set`
  /// at `placement`: base_cost(q) - cost(q, set). Joint benefit when the
  /// set has several views. Results are memoized.
  Result<std::vector<double>> PerQueryBenefit(
      const std::vector<views::View>& set, Placement placement);

  /// Bitset over the window (LSB-first, 64 queries per word): bit q is set
  /// iff `view` is relevant to window query q (QueryShape::Relevant) —
  /// i.e. the only queries whose cost materializing `view` can change.
  /// Callers hoist these once and probe pairs word-at-a-time (see
  /// interaction.cc); benefit rows are zero wherever the mask is zero.
  std::vector<uint64_t> RelevantMask(const views::View& view) const;

  /// Σ_q Weight(q) * PerQueryBenefit(set)[q]  — the predicted future
  /// benefit used as the knapsack item value.
  Result<double> PredictedBenefit(const std::vector<views::View>& set,
                                  Placement placement);

  /// Runs every optimizer probe that `PerQueryBenefit(sets[i], placement)`
  /// would need, fanning the missing ones over `pool` (`nullptr` or a
  /// single worker = the serial legacy path). Keys are collected, deduped,
  /// and re-inserted serially in deterministic order; only the pure
  /// optimizer calls run on workers. Afterwards the listed PerQueryBenefit
  /// calls are pure memo hits.
  Status Prewarm(ThreadPool* pool,
                 const std::vector<std::vector<views::View>>& sets,
                 Placement placement);

 private:
  /// Hashed memo key for one (set, placement): FNV over the sorted member
  /// ids. Ids are unique within a tuning pass, which is exactly the memo's
  /// lifetime (the cross-reorg layer is the id-free `whatif_`).
  struct SetKey {
    uint64_t ids_hash = 0;
    uint32_t count = 0;
    uint32_t placement = 0;

    bool operator==(const SetKey& other) const {
      return ids_hash == other.ids_hash && count == other.count &&
             placement == other.placement;
    }
  };
  struct SetKeyHash {
    std::size_t operator()(const SetKey& key) const;
  };

  static SetKey KeyOf(const std::vector<views::View>& set,
                      Placement placement);

  /// Memo key of the probe for window query `query_index` against `set`
  /// at `placement` (fingerprints only the relevant subset per store).
  optimizer::WhatIfKey ProbeKey(std::size_t query_index,
                                const std::vector<views::View>& set,
                                Placement placement) const;

  /// One optimizer probe (no probe-level lookup) of window query
  /// `query_index` against the hypothetical catalogs implied by (set,
  /// placement).
  Result<Seconds> Probe(std::size_t query_index,
                        const std::vector<views::View>& set,
                        Placement placement) const;

  /// Computes one full benefit row serially, using the fast path and the
  /// what-if memo. Does not consult or fill the row memo.
  Result<std::vector<double>> ComputeRow(const std::vector<views::View>& set,
                                         Placement placement);

  const optimizer::MultistoreOptimizer* optimizer_;
  int epoch_len_;
  double decay_;
  /// The what-if memo every probe goes through (layer 3 above): the
  /// caller's, else `own_whatif_`.
  optimizer::WhatIfCache own_whatif_;
  optimizer::WhatIfCache* whatif_;
  std::vector<plan::Plan> window_;
  std::vector<optimizer::QueryShape> shapes_;
  std::vector<double> base_costs_;
  std::unordered_map<SetKey, std::vector<double>, SetKeyHash> memo_;
};

}  // namespace miso::tuner

#endif  // MISO_TUNER_BENEFIT_H_
