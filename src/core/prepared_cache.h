// Prepared-query cache: memoizes phase (i) of query execution -- the
// pattern-tree -> pushdown plan rewrite, whose cost is dominated by SEO term
// expansion -- keyed by a canonical serialization of the pattern tree
// (DESIGN.md §11 "Prepared-query cache").
//
// The plan of a pattern depends only on (pattern, SEO), not
// on the stored documents, so entries stay valid across writes until the
// SEO changes; service::TossService calls Clear() when it swaps SEOs. The
// cache is a bounded, thread-safe LRU:
// repeated queries -- the common shape of production traffic -- skip SEO
// expansion entirely and go straight to the store scan.

#ifndef TOSS_CORE_PREPARED_CACHE_H_
#define TOSS_CORE_PREPARED_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/collection.h"
#include "tax/pattern_tree.h"

namespace toss::core {

/// A memoized phase (i) result: the pushdown plan and the SEO expansion
/// fan-out that produced it.
struct PreparedRewrite {
  store::PushdownPlan plan;
  size_t expanded_terms = 0;
};

/// Canonical cache key for a pattern: node structure (label/parent/edge in
/// creation order) and the condition's serialization. Two patterns with
/// equal keys rewrite identically under any fixed SEO.
std::string CanonicalPatternKey(const tax::PatternTree& pattern);

class PreparedQueryCache {
 public:
  explicit PreparedQueryCache(size_t capacity = 512);

  PreparedQueryCache(const PreparedQueryCache&) = delete;
  PreparedQueryCache& operator=(const PreparedQueryCache&) = delete;

  /// The entry for `key` on a hit (refreshing its LRU position), null on a
  /// miss. Entries are immutable and shared: a hit copies one pointer, and
  /// the entry outlives its eviction for as long as a caller holds it.
  std::shared_ptr<const PreparedRewrite> Lookup(const std::string& key);

  /// Inserts or refreshes `key`, evicting the least-recently-used entry
  /// beyond capacity.
  void Insert(const std::string& key,
              std::shared_ptr<const PreparedRewrite> entry);

  /// Drops every entry (SEO swap invalidation). Hit/miss counters persist.
  void Clear();

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t entries = 0;
    size_t capacity = 0;
  };
  Stats GetStats() const;

 private:
  struct Node {
    std::shared_ptr<const PreparedRewrite> rewrite;
    std::list<std::string>::iterator lru_it;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::unordered_map<std::string, Node> entries_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

}  // namespace toss::core

#endif  // TOSS_CORE_PREPARED_CACHE_H_
