#include "optimizer/whatif_cache.h"

#include "common/hash.h"

namespace miso::optimizer {

namespace {

uint64_t HashU64(uint64_t h, uint64_t v) { return HashCombine(h, v); }

/// Everything about one view that a rewrite can expose to the cost model
/// (single-sourced in View so every content-identity cache aliases alike).
uint64_t ViewFingerprint(const views::View& view) {
  return view.ContentFingerprint();
}

}  // namespace

QueryShape QueryShape::Of(const plan::Plan& query) {
  QueryShape shape;
  shape.signature = query.signature();
  for (const plan::NodePtr& node : query.PostOrder()) {
    shape.node_signatures.insert(node->signature());
    if (node->kind() == plan::OpKind::kFilter && !node->children().empty()) {
      shape.filter_base_signatures.insert(node->children()[0]->signature());
    }
  }
  return shape;
}

bool QueryShape::Relevant(const views::View& view) const {
  if (node_signatures.count(view.signature) > 0) return true;
  return view.base_signature != 0 &&
         filter_base_signatures.count(view.base_signature) > 0;
}

bool QueryShape::AnyRelevant(const std::vector<views::View>& set) const {
  for (const views::View& view : set) {
    if (Relevant(view)) return true;
  }
  return false;
}

std::size_t WhatIfKeyHash::operator()(const WhatIfKey& key) const {
  uint64_t h = kFnvOffsetBasis;
  h = HashU64(h, key.query_signature);
  h = HashU64(h, key.dw_fingerprint);
  h = HashU64(h, key.hv_fingerprint);
  return static_cast<std::size_t>(h);
}

uint64_t WhatIfCache::Fingerprint(const QueryShape& shape,
                                  const std::vector<views::View>& set) {
  uint64_t h = kFnvOffsetBasis;
  for (const views::View& view : set) {
    if (!shape.Relevant(view)) continue;
    h = HashCombineUnordered(h, ViewFingerprint(view));
  }
  return h;
}

uint64_t WhatIfCache::EmptyFingerprint() { return kFnvOffsetBasis; }

std::optional<Seconds> WhatIfCache::Lookup(const WhatIfKey& key) {
  MutexLock lock(probe_mu_);
  const auto it = probes_.find(key);
  if (it == probes_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void WhatIfCache::Insert(const WhatIfKey& key, Seconds cost) {
  MutexLock lock(probe_mu_);
  if (probes_.size() >= kMaxEntries) {
    evictions_ += static_cast<int64_t>(probes_.size());
    probes_.clear();
  }
  probes_[key] = cost;
}

WhatIfCache::Stats WhatIfCache::GetStats() const {
  MutexLock lock(probe_mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = static_cast<int64_t>(probes_.size());
  return stats;
}

}  // namespace miso::optimizer
