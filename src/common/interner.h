// Process-wide term interner: an append-only dictionary mapping term text
// to a dense u32 SymbolId and back.
//
// Why: the query layers (condition evaluation, embedding tag matching, the
// twig-join value merge, SEO term lookups) compare the same small set of
// tag/content strings over and over. Interning each distinct term once
// turns those comparisons into integer compares: equal ids always mean
// equal text, and for terms without glob wildcards unequal ids mean
// unequal text (equality in TAX/TOSS is string equality plus '*' globbing,
// never numeric coercion — see tax/tax_semantics.cc CompareValues).
//
// Concurrency contract:
//   * Intern() / Find() may be called from any thread (sharded mutexes).
//   * Text() / HasStar() / size() are lock-free: id -> entry resolution
//     reads only atomically published chunk pointers, and the backing
//     strings are immutable once their id has been returned by Intern().
//     Readers holding a valid SymbolId never block or race appenders
//     (exercised under TSan in tests/interner_test.cc).
//   * Ids are dense, start at 0, and are never reused or invalidated.
//
// The dictionary is process-wide (Global()), not per-Database: DataTree
// decoding is a static path shared by every store and by trees built in
// tests. It is never persisted: ids are process-local, and every consumer
// interns from text (a store its tags at insert, decoding its contents).

#ifndef TOSS_COMMON_INTERNER_H_
#define TOSS_COMMON_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace toss {

using SymbolId = uint32_t;
inline constexpr SymbolId kInvalidSymbol = 0xFFFFFFFFu;

class Interner {
 public:
  /// The process-wide dictionary.
  static Interner& Global();

  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;
  ~Interner();

  /// Returns the id of `text`, appending it on first sight. Thread-safe.
  /// Returns kInvalidSymbol only when the dictionary is full (2^26 terms);
  /// callers must treat that as "no id available", never as an error.
  SymbolId Intern(std::string_view text);

  /// Non-inserting lookup. Empty when `text` has never been interned --
  /// note that a term may be interned by a later caller, so "absent now"
  /// must not be cached as "unequal to everything forever".
  std::optional<SymbolId> Find(std::string_view text) const;

  /// The text of `id`. Lock-free; `id` must have been returned by Intern().
  std::string_view Text(SymbolId id) const { return Entry(id).text; }

  /// True when the text of `id` contains a '*' glob wildcard. Lock-free.
  /// Equality fast paths need this: two distinct star-free terms are
  /// provably unequal, while terms with '*' must go through GlobMatch.
  bool HasStar(SymbolId id) const { return Entry(id).has_star; }

  /// Number of interned terms (acquire; ids [0, size()) are all valid).
  size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  struct EntryData {
    std::string text;
    bool has_star = false;
  };

  // id -> entry storage: a fixed array of atomically published chunk
  // pointers. Chunks are never moved or freed while the interner lives, so
  // readers dereference without locks. 2^13 chunks x 2^13 entries = 2^26
  // terms (~67M), far beyond any realistic dictionary.
  static constexpr size_t kChunkBits = 13;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = size_t{1} << 13;
  static constexpr size_t kShards = 16;

  const EntryData& Entry(SymbolId id) const {
    return chunks_[id >> kChunkBits].load(std::memory_order_acquire)
        [id & (kChunkSize - 1)];
  }

  struct Shard {
    mutable std::mutex mu;
    // Keys view into the chunk-owned strings, which never move.
    std::unordered_map<std::string_view, SymbolId> map;
  };

  Shard& ShardFor(std::string_view text) const;

  std::atomic<EntryData*> chunks_[kMaxChunks] = {};
  std::atomic<uint32_t> size_{0};
  std::mutex append_mu_;  ///< serializes id assignment across shards
  mutable Shard shards_[kShards];
};

}  // namespace toss

#endif  // TOSS_COMMON_INTERNER_H_
