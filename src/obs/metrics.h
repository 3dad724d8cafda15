// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms (DESIGN.md §10 "Observability").
//
// Hot-path cost is the design constraint: every instrument is updated with
// relaxed atomics on cache-line-separated shards indexed by a thread-local
// hash, so concurrent increments from the worker pool never contend on one
// line and an increment is a single wait-free fetch_add. Reads (Value,
// snapshots) sum the shards; they are racy-by-design monotonic views, which
// is exactly what a metrics reader wants.
//
// Naming scheme: dotted lowercase `subsystem.object.event[_unit]`, e.g.
// `store.tree_cache.hits`, `query.eval_ns`. Instruments are created on
// first GetCounter/GetGauge/GetHistogram and live forever; call sites cache
// the returned reference (typically in a function-local static) so the
// registry mutex is only taken once per call site.

#ifndef TOSS_OBS_METRICS_H_
#define TOSS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace toss::obs {

namespace internal {
/// Small per-thread shard index; distinct running threads land on distinct
/// shards with high probability.
size_t ShardIndex(size_t shard_count);
}  // namespace internal

/// Monotonic counter, sharded across cache lines.
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Add(uint64_t delta) {
    shards_[internal::ShardIndex(kShards)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Last-write-wins instantaneous value (queue depths, configured sizes).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket latency histogram over nanoseconds. Bucket b counts samples
/// in (UpperBound(b-1), UpperBound(b)]; bounds grow as powers of two from
/// 256 ns to ~17 s, with a final overflow bucket. Buckets and the running
/// sum/count are sharded like Counter, so Record is wait-free.
class Histogram {
 public:
  static constexpr size_t kBuckets = 28;
  static constexpr size_t kShards = 4;

  /// Inclusive upper bound of bucket `b` in nanoseconds; the last bucket is
  /// unbounded (returns UINT64_MAX).
  static uint64_t UpperBound(size_t b);

  void Record(uint64_t nanos);

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum_nanos = 0;
    uint64_t counts[kBuckets] = {};

    double MeanMillis() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum_nanos) /
                              static_cast<double>(count) / 1e6;
    }
    /// Upper bound (ms) of the bucket containing quantile q in [0, 1] -- a
    /// conservative estimate, exact enough for dashboards and tests.
    double QuantileUpperBoundMillis(double q) const;

    /// Interpolated quantile in milliseconds: the sample at rank q*count is
    /// located in its bucket and the value is linearly interpolated between
    /// the bucket's bounds by rank position. With power-of-two bucket
    /// bounds the result is within one bucket width of the true sample
    /// quantile, monotone in q, and never above QuantileUpperBoundMillis.
    /// The overflow bucket interpolates toward 2x the last finite bound.
    /// Returns 0 for an empty snapshot.
    double PercentileMillis(double q) const;

    /// This snapshot minus `earlier` (per bucket, count, and sum), clamped
    /// at zero so a registry Reset between the two snapshots degrades to an
    /// empty delta instead of wrapping. The windowed time-series rollups
    /// are built from these interval deltas.
    Snapshot DeltaSince(const Snapshot& earlier) const;
  };
  Snapshot GetSnapshot() const;

  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> counts[kBuckets] = {};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> n{0};
  };
  Shard shards_[kShards];
};

/// The registry: name -> instrument, plus JSON / stderr exporters.
class MetricsRegistry {
 public:
  /// Process-wide instance (never destroyed).
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. The returned reference is stable forever.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Zeroes every instrument's value; names stay registered. For tests and
  /// bench harnesses that want per-phase deltas.
  void Reset();

  /// Point-in-time values of all registered instruments.
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, Histogram::Snapshot> histograms;
  };
  Snapshot GetSnapshot() const;

  /// The snapshot as one JSON object:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum_ns":..,"mean_ms":..,
  ///                          "p50_ms":..,"p99_ms":..,
  ///                          "buckets":[c0,...,c27]}}}
  /// The raw bucket counts let external tools (tools/tosstop.py) subtract
  /// two successive dumps and interpolate interval percentiles.
  common::JsonValue SnapshotJson() const;

  /// Escape hatch for tests/benches/debugging: human-readable dump, one
  /// instrument per line, sorted by name.
  void Dump(std::FILE* out) const;

 private:
  mutable std::mutex mu_;
  // unique_ptr values keep instrument addresses stable across rehashes.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::Global() -- call-site friendly:
///   static obs::Counter& hits = obs::Metrics().GetCounter("x.hits");
inline MetricsRegistry& Metrics() { return MetricsRegistry::Global(); }

}  // namespace toss::obs

#endif  // TOSS_OBS_METRICS_H_
