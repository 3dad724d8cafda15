#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <thread>

namespace toss::obs {

namespace internal {

size_t ShardIndex(size_t shard_count) {
  // One hash per thread, computed once: thread ids are opaque, so mix the
  // address of a thread-local byte instead (distinct per running thread).
  static thread_local const size_t hash = [] {
    static thread_local char anchor;
    auto bits = reinterpret_cast<uintptr_t>(&anchor);
    bits ^= bits >> 17;
    bits *= 0x9E3779B97F4A7C15ull;  // Fibonacci hashing
    return static_cast<size_t>(bits >> 32);
  }();
  return hash % shard_count;
}

}  // namespace internal

uint64_t Histogram::UpperBound(size_t b) {
  if (b + 1 >= kBuckets) return UINT64_MAX;
  return uint64_t{256} << b;  // 256ns, 512ns, ... ~17s
}

void Histogram::Record(uint64_t nanos) {
  size_t bucket;
  if (nanos <= 256) {
    bucket = 0;
  } else {
    // Index of the first power-of-two bound >= nanos.
    bucket = static_cast<size_t>(std::bit_width(nanos - 1)) - 8;
    bucket = std::min(bucket, kBuckets - 1);
  }
  Shard& s = shards_[internal::ShardIndex(kShards)];
  s.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(nanos, std::memory_order_relaxed);
  s.n.fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::GetSnapshot() const {
  Snapshot out;
  for (const Shard& s : shards_) {
    out.count += s.n.load(std::memory_order_relaxed);
    out.sum_nanos += s.sum.load(std::memory_order_relaxed);
    for (size_t b = 0; b < kBuckets; ++b) {
      out.counts[b] += s.counts[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double Histogram::Snapshot::QuantileUpperBoundMillis(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += counts[b];
    if (seen > rank || (seen == count && counts[b] > 0)) {
      uint64_t bound = UpperBound(b);
      if (bound == UINT64_MAX) bound = UpperBound(kBuckets - 2) * 2;
      return static_cast<double>(bound) / 1e6;
    }
  }
  return 0.0;
}

double Histogram::Snapshot::PercentileMillis(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the wanted sample in [0, count-1] (nearest-rank, then
  // interpolated within the winning bucket).
  const double rank = q * static_cast<double>(count - 1);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    const double lo_rank = static_cast<double>(seen);
    seen += counts[b];
    if (rank < static_cast<double>(seen)) {
      const double lower =
          b == 0 ? 0.0 : static_cast<double>(UpperBound(b - 1));
      double upper = static_cast<double>(UpperBound(b));
      if (UpperBound(b) == UINT64_MAX) {
        upper = 2.0 * static_cast<double>(UpperBound(kBuckets - 2));
      }
      // Position of the wanted rank inside this bucket's run of samples,
      // in (0, 1]: rank lo_rank sits just above the bucket's lower bound,
      // rank seen-1 at its upper bound.
      const double in_bucket =
          (rank - lo_rank + 1.0) / static_cast<double>(counts[b]);
      return (lower + in_bucket * (upper - lower)) / 1e6;
    }
  }
  return 0.0;
}

Histogram::Snapshot Histogram::Snapshot::DeltaSince(
    const Snapshot& earlier) const {
  Snapshot out;
  out.count = count > earlier.count ? count - earlier.count : 0;
  out.sum_nanos =
      sum_nanos > earlier.sum_nanos ? sum_nanos - earlier.sum_nanos : 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    out.counts[b] =
        counts[b] > earlier.counts[b] ? counts[b] - earlier.counts[b] : 0;
  }
  return out;
}

void Histogram::Reset() {
  for (Shard& s : shards_) {
    s.sum.store(0, std::memory_order_relaxed);
    s.n.store(0, std::memory_order_relaxed);
    for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: instruments are referenced from function-local statics all over
  // the codebase; destruction order at exit is not worth reasoning about.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsRegistry::Snapshot MetricsRegistry::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot out;
  for (const auto& [name, c] : counters_) out.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    out.histograms[name] = h->GetSnapshot();
  }
  return out;
}

common::JsonValue MetricsRegistry::SnapshotJson() const {
  using common::JsonValue;
  const Snapshot snap = GetSnapshot();
  const auto num = [](auto v) {
    return JsonValue::Number(static_cast<double>(v));
  };
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, v] : snap.counters) counters.Set(name, num(v));
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, v] : snap.gauges) gauges.Set(name, num(v));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, h] : snap.histograms) {
    JsonValue entry = JsonValue::Object();
    entry.Set("count", num(h.count));
    entry.Set("sum_ns", num(h.sum_nanos));
    entry.Set("mean_ms", num(h.MeanMillis()));
    entry.Set("p50_ms", num(h.QuantileUpperBoundMillis(0.5)));
    entry.Set("p99_ms", num(h.QuantileUpperBoundMillis(0.99)));
    JsonValue buckets = JsonValue::Array();
    for (uint64_t c : h.counts) buckets.Append(num(c));
    entry.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  out.Set("histograms", std::move(histograms));
  return out;
}

void MetricsRegistry::Dump(std::FILE* out) const {
  const Snapshot snap = GetSnapshot();
  for (const auto& [name, v] : snap.counters) {
    std::fprintf(out, "counter   %-44s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(v));
  }
  for (const auto& [name, v] : snap.gauges) {
    std::fprintf(out, "gauge     %-44s %lld\n", name.c_str(),
                 static_cast<long long>(v));
  }
  for (const auto& [name, h] : snap.histograms) {
    std::fprintf(out,
                 "histogram %-44s count=%llu mean=%.3fms p50<=%.3fms "
                 "p99<=%.3fms\n",
                 name.c_str(), static_cast<unsigned long long>(h.count),
                 h.MeanMillis(), h.QuantileUpperBoundMillis(0.5),
                 h.QuantileUpperBoundMillis(0.99));
  }
}

}  // namespace toss::obs
