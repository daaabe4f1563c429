#ifndef MISO_SERVER_PLAN_CACHE_H_
#define MISO_SERVER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "obs/metrics.h"
#include "optimizer/multistore_plan.h"

namespace miso::server {

/// Cache key of one serving-path planning call: the query identity plus
/// the design identity (per-store catalog content fingerprints). The cost
/// models need no key part: each server owns one cache and fixes its cost
/// models at construction. Between two wholesale invalidations the live
/// catalogs only *gain* views (opportunistic harvest; removals happen
/// only at reorganization flips, which invalidate), and
/// `ViewCatalog::ContentFingerprint` folds per-view fingerprints with a
/// modular sum — so within one invalidation window equal fingerprints
/// mean the catalog is unchanged, including view ids (a set of additions
/// summing to exactly 0 mod 2^64 is a hash collision, the same risk
/// class every fingerprint consumer accepts). That is what makes the
/// cached plan — ViewScan ids and all — exact, not merely cost-equal.
struct PlanCacheKey {
  uint64_t query_signature = 0;
  uint64_t hv_fingerprint = 0;
  uint64_t dw_fingerprint = 0;

  bool operator==(const PlanCacheKey& other) const {
    return query_signature == other.query_signature &&
           hv_fingerprint == other.hv_fingerprint &&
           dw_fingerprint == other.dw_fingerprint;
  }
};

struct PlanCacheKeyHash {
  std::size_t operator()(const PlanCacheKey& key) const;
};

/// Byte-bounded LRU cache of serving-path optimizer answers, keyed on
/// (query signature, HV/DW catalog content fingerprint). An entry stores
/// the full `MultistorePlan` (five-part cost anatomy included) *and* the
/// optimizer telemetry captured while it was first computed — trace
/// lines, histogram observations, counter deltas — so a hit replays
/// byte-identical observability at the session's serial reduce point and
/// every model-class output is independent of the cache being on, off,
/// or thrashing.
///
/// Threading: single-threaded by design — every member is called from
/// the server's scheduler thread only (`Peek` at speculative dispatch,
/// `Lookup`/`Insert`/`Invalidate` in the serial wave passes), so there
/// is no mutex and hit/miss/eviction counts are trivially a pure
/// function of the admission order.
///
/// Invalidation is wholesale (`Invalidate`), called at every published
/// design flip (the only point where views can leave a catalog — a
/// rolled-back or outage-skipped reorganization changes nothing and
/// keeps the window open) and at every DW-outage degradation edge.
/// Entries never go stale in place: between invalidations fingerprint
/// equality implies catalog equality (see `PlanCacheKey`).
class PlanCache {
 public:
  /// Approximate resident overhead of one entry before its payload
  /// (key, LRU/index bookkeeping, vectors' headers). Exposed so tests
  /// can set `max_bytes` to exactly this to force capacity 1 — the
  /// eviction-heavy configuration of the byte-identity sweep.
  static constexpr Bytes kEntryBaseBytes = 512;

  static constexpr Bytes kDefaultMaxBytes = 64 * kMiB;

  /// One cached optimizer answer plus its deferred telemetry.
  struct Entry {
    optimizer::MultistorePlan plan;
    std::vector<std::string> trace_lines;
    std::vector<obs::ScopedHistogramCapture::Observation> histogram_obs;
    std::vector<obs::ScopedCounterCapture::Delta> counter_deltas;
  };

  explicit PlanCache(Bytes max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the entry without touching counters or the LRU order — the
  /// speculative-dispatch probe. Because the cache only mutates on the
  /// scheduler thread, a Peek's answer always equals the authoritative
  /// `Lookup` the reducer performs later for the same key.
  const Entry* Peek(const PlanCacheKey& key) const;

  /// Returns the entry and refreshes its LRU position, counting a hit;
  /// counts a miss and returns nullptr when absent.
  const Entry* Lookup(const PlanCacheKey& key);

  /// Inserts (or overwrites) `key`, then evicts from the LRU tail while
  /// over the byte bound, returning how many entries were evicted. The
  /// newest entry is never evicted, so a bound smaller than one entry
  /// degrades to capacity 1.
  int64_t Insert(const PlanCacheKey& key, Entry entry);

  /// Drops every entry (design flip / degradation edge), counting one
  /// invalidation.
  void Invalidate();

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t invalidations = 0;
    int64_t entries = 0;
    Bytes bytes = 0;
  };
  Stats GetStats() const;

  Bytes max_bytes() const { return max_bytes_; }

 private:
  struct Node {
    PlanCacheKey key;
    Entry entry;
    Bytes bytes = 0;
  };

  static Bytes EntryBytes(const Entry& entry);

  Bytes max_bytes_;
  Bytes bytes_ = 0;
  // front = most recently used
  std::list<Node> lru_;
  std::unordered_map<PlanCacheKey, std::list<Node>::iterator, PlanCacheKeyHash>
      index_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t invalidations_ = 0;
};

}  // namespace miso::server

#endif  // MISO_SERVER_PLAN_CACHE_H_
