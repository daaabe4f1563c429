#ifndef MISO_OPTIMIZER_WHATIF_CACHE_H_
#define MISO_OPTIMIZER_WHATIF_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/units.h"
#include "plan/plan.h"
#include "views/view.h"

namespace miso::optimizer {

/// The subset of a query plan's structure that determines which views the
/// rewriter can ever splice into it: every original node's signature (the
/// `FindExact` probes) and, for every Filter node, its child's signature
/// (the `FindByBase` probes). Rewriting is top-down over original nodes
/// only — spliced ViewScans are never re-probed — so a view outside both
/// sets can never appear in any rewrite of the query, and therefore can
/// never change its what-if cost.
struct QueryShape {
  uint64_t signature = 0;
  std::unordered_set<uint64_t> node_signatures;
  std::unordered_set<uint64_t> filter_base_signatures;

  static QueryShape Of(const plan::Plan& query);

  /// True when `view` could participate in some rewrite of this query.
  /// Over-approximate (the predicate-implication check is skipped), which
  /// is the safe direction: a relevant-looking view that the rewriter then
  /// rejects only widens the cache key, never aliases distinct designs.
  bool Relevant(const views::View& view) const;

  /// True when any view in `set` is Relevant.
  bool AnyRelevant(const std::vector<views::View>& set) const;
};

/// Cache key of one what-if probe: the query identity plus a fingerprint
/// of the relevant view subset per store. Hypothetical catalogs that
/// differ only in irrelevant views map to the same key.
struct WhatIfKey {
  uint64_t query_signature = 0;
  uint64_t dw_fingerprint = 0;
  uint64_t hv_fingerprint = 0;

  bool operator==(const WhatIfKey& other) const {
    return query_signature == other.query_signature &&
           dw_fingerprint == other.dw_fingerprint &&
           hv_fingerprint == other.hv_fingerprint;
  }
};

struct WhatIfKeyHash {
  std::size_t operator()(const WhatIfKey& key) const;
};

/// The what-if memo, owned by whoever probes: `MisoTuner` keeps one for
/// its lifetime (one per engine, hence one per seed), and a standalone
/// `tuner::BenefitAnalyzer` keeps a private one. Two levels, both pure
/// content-keyed memos, so no entry ever goes stale while the optimizer
/// (and hence its cost models, fixed at construction) stays the same:
///
///  1. *Probe* level — a probe's cost keyed by `WhatIfKey` (query
///     signature plus relevant-subset fingerprint per store). Touched only
///     from the analyzer's serial code (`SetWindow`, `ComputeRow`,
///     `Prewarm` stages 1 and 3), so hits, misses, evictions and the
///     resident set are a pure function of the probe order — identical for
///     every `MISO_THREADS`. Successive reorganizations share most of their
///     window and candidate pool, so a tuner-lifetime memo answers most of
///     a warm pass without touching the optimizer.
///  2. *Variant* level — best-split totals keyed by a structural hash of
///     each *rewritten* plan variant (`MultistoreOptimizer::WhatIfCost`).
///     Probes with different keys still share most of their rewrite
///     variants — the bare query recurs in every probe of that query, and
///     a single-store rewrite recurs across every placement that splices
///     the same views into the same positions — so this level retires the
///     bulk of a cold pass's enumeration and costing work. Safe for the
///     concurrent probes of `Prewarm`'s fan-out: a miss holds the lock
///     across the solve, so each variant is solved exactly once regardless
///     of `MISO_THREADS`, keeping the optimizer's split/candidate counters
///     deterministic, at the price of serializing concurrent misses.
///
/// Bound: each level resets wholesale when it reaches `kMaxEntries`
/// (always exact — entries are pure recomputables). Probe-level resets
/// count every dropped entry as an eviction.
class WhatIfCache {
 public:
  /// Per-level entry cap. One tuning pass creates a few hundred distinct
  /// probes and variants (docs/PERFORMANCE.md measures at most 12,248
  /// resident probes over a whole run), so the cap spans many
  /// reorganizations while capping memory at a few MiB.
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 16;

  WhatIfCache() = default;
  WhatIfCache(const WhatIfCache&) = delete;
  WhatIfCache& operator=(const WhatIfCache&) = delete;

  /// Fingerprint of the views in `set` that are relevant to `shape`,
  /// order-independent. Each relevant view contributes everything its
  /// rewrite could expose to the cost model — signature, base signature,
  /// predicate, size, and output stats — but *not* its id: ids are
  /// assigned per materialization and never affect cost, and excluding
  /// them is what lets a re-harvested view hit the entries its previous
  /// incarnation warmed.
  static uint64_t Fingerprint(const QueryShape& shape,
                              const std::vector<views::View>& set);

  /// Fingerprint of the empty view set (the base-cost probes).
  static uint64_t EmptyFingerprint();

  /// Probe level: the memoized cost, or nullopt (counting a miss).
  std::optional<Seconds> Lookup(const WhatIfKey& key);

  /// Probe level: inserts `cost` under `key`, first resetting the level
  /// when it is full.
  void Insert(const WhatIfKey& key, Seconds cost);

  /// Variant level: the best-split total memoized under `variant_hash`,
  /// or `solve()`'s answer, memoized. `solve` runs under the level's lock.
  template <typename Solve>
  Result<Seconds> VariantTotal(uint64_t variant_hash, Solve&& solve);

  /// Probe-level counters over the memo's lifetime.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t entries = 0;
  };
  Stats GetStats() const;

 private:
  mutable Mutex probe_mu_;
  std::unordered_map<WhatIfKey, Seconds, WhatIfKeyHash> probes_
      MISO_GUARDED_BY(probe_mu_);
  int64_t hits_ MISO_GUARDED_BY(probe_mu_) = 0;
  int64_t misses_ MISO_GUARDED_BY(probe_mu_) = 0;
  int64_t evictions_ MISO_GUARDED_BY(probe_mu_) = 0;

  Mutex variant_mu_;
  std::unordered_map<uint64_t, Result<Seconds>> variants_
      MISO_GUARDED_BY(variant_mu_);
};

template <typename Solve>
Result<Seconds> WhatIfCache::VariantTotal(uint64_t variant_hash,
                                          Solve&& solve) {
  MutexLock lock(variant_mu_);
  const auto it = variants_.find(variant_hash);
  if (it != variants_.end()) return it->second;
  // Solve under the lock: each key is enumerated and costed exactly once
  // regardless of thread count. Deadlock-free: a worker holding the lock
  // runs the solve's nested ParallelFor inline (pool nesting detection),
  // and a non-worker caller never holds the lock while waiting on pool
  // futures it could starve — other probes merely queue behind the lock.
  Result<Seconds> total = solve();
  if (variants_.size() >= kMaxEntries) variants_.clear();
  variants_.emplace(variant_hash, total);
  return total;
}

}  // namespace miso::optimizer

#endif  // MISO_OPTIMIZER_WHATIF_CACHE_H_
