#include "server/plan_cache.h"

#include <utility>

#include "common/hash.h"

namespace miso::server {

std::size_t PlanCacheKeyHash::operator()(const PlanCacheKey& key) const {
  uint64_t h = key.query_signature;
  h = HashCombine(h, key.hv_fingerprint);
  h = HashCombine(h, key.dw_fingerprint);
  return static_cast<std::size_t>(h);
}

Bytes PlanCache::EntryBytes(const Entry& entry) {
  Bytes bytes = kEntryBaseBytes;
  for (const std::string& line : entry.trace_lines) {
    bytes += static_cast<Bytes>(line.size()) + sizeof(std::string);
  }
  bytes += static_cast<Bytes>(entry.histogram_obs.size()) *
           sizeof(obs::ScopedHistogramCapture::Observation);
  bytes += static_cast<Bytes>(entry.counter_deltas.size()) *
           sizeof(obs::ScopedCounterCapture::Delta);
  // Plan payload: the node tree is shared (refcounted) with the live
  // plan, so charge per-node bookkeeping rather than deep size.
  bytes += static_cast<Bytes>(entry.plan.executed.NumOperators()) * 64;
  bytes += static_cast<Bytes>(entry.plan.dw_side.size() +
                              entry.plan.cut_inputs.size()) *
           sizeof(void*);
  return bytes;
}

const PlanCache::Entry* PlanCache::Peek(const PlanCacheKey& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  return &it->second->entry;
}

const PlanCache::Entry* PlanCache::Lookup(const PlanCacheKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_ += 1;
    return nullptr;
  }
  hits_ += 1;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->entry;
}

int64_t PlanCache::Insert(const PlanCacheKey& key, Entry entry) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  Node node;
  node.key = key;
  node.bytes = EntryBytes(entry);
  node.entry = std::move(entry);
  bytes_ += node.bytes;
  lru_.push_front(std::move(node));
  index_[key] = lru_.begin();

  int64_t evicted = 0;
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    const Node& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    evictions_ += 1;
    evicted += 1;
  }
  return evicted;
}

void PlanCache::Invalidate() {
  invalidations_ += 1;
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

PlanCache::Stats PlanCache::GetStats() const {
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.invalidations = invalidations_;
  stats.entries = static_cast<int64_t>(lru_.size());
  stats.bytes = bytes_;
  return stats;
}

}  // namespace miso::server
