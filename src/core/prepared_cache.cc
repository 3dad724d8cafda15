#include "core/prepared_cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace toss::core {

namespace {

struct CacheMetrics {
  obs::Counter& hits =
      obs::Metrics().GetCounter("service.prepared_cache.hits");
  obs::Counter& misses =
      obs::Metrics().GetCounter("service.prepared_cache.misses");
  obs::Counter& evictions =
      obs::Metrics().GetCounter("service.prepared_cache.evictions");
};

CacheMetrics& Instruments() {
  static CacheMetrics* m = new CacheMetrics();
  return *m;
}

}  // namespace

std::string CanonicalPatternKey(const tax::PatternTree& pattern) {
  std::string key;
  key.reserve(64);
  for (size_t i = 0; i < pattern.node_count(); ++i) {
    const tax::PatternNode& n = pattern.node(i);
    key += std::to_string(n.label);
    key += n.edge_from_parent == tax::EdgeKind::kAd ? 'a' : 'p';
    key += std::to_string(n.parent);
    key += ';';
  }
  key += '|';
  key += pattern.condition().ToString();
  return key;
}

PreparedQueryCache::PreparedQueryCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

std::shared_ptr<const PreparedRewrite> PreparedQueryCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    Instruments().misses.Increment();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++hits_;
  Instruments().hits.Increment();
  return it->second.rewrite;
}

void PreparedQueryCache::Insert(
    const std::string& key, std::shared_ptr<const PreparedRewrite> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.rewrite = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(key);
  entries_[key] = Node{std::move(entry), lru_.begin()};
  if (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    Instruments().evictions.Increment();
  }
}

void PreparedQueryCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

PreparedQueryCache::Stats PreparedQueryCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, entries_.size(), capacity_};
}

}  // namespace toss::core
