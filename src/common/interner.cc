#include "common/interner.h"

#include <functional>

namespace toss {

Interner& Interner::Global() {
  static Interner* instance = new Interner();  // never destroyed
  return *instance;
}

Interner::~Interner() {
  for (auto& chunk : chunks_) {
    delete[] chunk.load(std::memory_order_relaxed);
  }
}

Interner::Shard& Interner::ShardFor(std::string_view text) const {
  return shards_[std::hash<std::string_view>{}(text) % kShards];
}

SymbolId Interner::Intern(std::string_view text) {
  Shard& shard = ShardFor(text);
  std::lock_guard<std::mutex> shard_lock(shard.mu);
  auto it = shard.map.find(text);
  if (it != shard.map.end()) return it->second;

  // New term: assign the next id and publish its entry before making it
  // findable. Shard lock held throughout so a racing Intern of the same
  // text waits here and then hits the map. Lock order shard -> append is
  // uniform, so cross-shard appends cannot deadlock.
  std::lock_guard<std::mutex> append_lock(append_mu_);
  const uint32_t id = size_.load(std::memory_order_relaxed);
  const size_t chunk = id >> kChunkBits;
  if (chunk >= kMaxChunks) return kInvalidSymbol;  // dictionary full
  EntryData* entries = chunks_[chunk].load(std::memory_order_acquire);
  if (entries == nullptr) {
    entries = new EntryData[kChunkSize];
    chunks_[chunk].store(entries, std::memory_order_release);
  }
  EntryData& e = entries[id & (kChunkSize - 1)];
  e.text.assign(text.data(), text.size());
  e.has_star = text.find('*') != std::string_view::npos;
  size_.store(id + 1, std::memory_order_release);
  shard.map.emplace(std::string_view(e.text), id);
  return id;
}

std::optional<SymbolId> Interner::Find(std::string_view text) const {
  Shard& shard = ShardFor(text);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(text);
  if (it == shard.map.end()) return std::nullopt;
  return it->second;
}

}  // namespace toss
