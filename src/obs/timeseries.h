// Windowed time-series rollups over the metrics registry (DESIGN.md §15).
//
// The registry's instruments are cumulative since process start, which is
// the right shape for cheap hot-path updates but the wrong shape for "what
// is the p99 right now". TimeSeries closes that gap: a ticker (background
// thread or manual Tick() in tests) snapshots the registry at a fixed
// interval and stores the *delta* against the previous snapshot as one
// Window -- counter increments, gauge values, and per-interval histogram
// bucket deltas. Windows live in a bounded ring (default 240 x 500 ms = two
// minutes of history) and render to JSON for TelemetryDump and tosstop.py.
//
// Deltas are clamped at zero, so a MetricsRegistry::Reset between ticks
// degrades to an empty window instead of an underflowed one. Interval
// percentiles use Histogram::Snapshot::PercentileMillis (interpolated), and
// WindowedPercentileMillis merges the last N windows for "p99 over the last
// minute" style queries.

#ifndef TOSS_OBS_TIMESERIES_H_
#define TOSS_OBS_TIMESERIES_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace toss::obs {

class TimeSeries {
 public:
  /// One fixed-interval rollup: what changed between two registry ticks.
  struct Window {
    uint64_t seq = 0;            ///< 1-based, monotonically increasing
    uint64_t start_unix_ms = 0;  ///< wall clock at the window's open
    uint64_t duration_ms = 0;    ///< actual elapsed (>= configured interval)
    /// Counter increments over the window; zero-delta counters omitted.
    std::map<std::string, uint64_t> counter_deltas;
    /// Gauge values at the window's close (point-in-time, not deltas).
    std::map<std::string, int64_t> gauges;
    /// Histogram activity over the window; empty-delta histograms omitted.
    std::map<std::string, Histogram::Snapshot> histogram_deltas;

    /// Delta / duration, in events per second.
    double RatePerSecond(const std::string& counter) const;

    /// {"seq":..,"start_unix_ms":..,"duration_ms":..,
    ///  "counters":{"name":{"delta":..,"rate_per_s":..}},
    ///  "gauges":{"name":..},
    ///  "histograms":{"name":{"count":..,"mean_ms":..,"p50_ms":..,
    ///                        "p99_ms":..,"buckets":[...]}}}
    /// Percentiles are interpolated over the interval's deltas.
    common::JsonValue Json() const;
  };

  explicit TimeSeries(MetricsRegistry* registry = &MetricsRegistry::Global(),
                      size_t capacity = 240);
  ~TimeSeries();
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  /// Takes one snapshot now. The first call only establishes the baseline;
  /// every later call appends a Window (evicting the oldest past capacity).
  /// Safe to call concurrently with the background ticker and readers.
  void Tick();

  /// Starts the background ticker at `interval`. Idempotent; a second call
  /// with the ticker running is a no-op.
  void Start(std::chrono::milliseconds interval);

  /// Stops and joins the ticker thread. Idempotent. Retained windows stay.
  void Stop();

  bool running() const;

  /// Newest `max_windows` windows, oldest first.
  std::vector<Window> GetWindows(size_t max_windows = SIZE_MAX) const;

  /// Interpolated quantile of `histogram` merged across the newest
  /// `last_n_windows` windows ("p99 over the last minute"). Returns 0 when
  /// the histogram saw no samples in that span.
  double WindowedPercentileMillis(const std::string& histogram, double q,
                                  size_t last_n_windows) const;

  /// {"interval_ms":..,"windows":[...oldest first...]} capped at
  /// `max_windows` newest.
  common::JsonValue Json(size_t max_windows = SIZE_MAX) const;

  /// Drops all windows and the baseline. For tests.
  void Reset();

 private:
  void AppendWindow(uint64_t now_unix_ms);

  MetricsRegistry* const registry_;
  const size_t capacity_;

  mutable std::mutex mu_;
  bool has_baseline_ = false;
  MetricsRegistry::Snapshot baseline_;
  uint64_t baseline_unix_ms_ = 0;
  uint64_t next_seq_ = 1;
  std::deque<Window> windows_;

  mutable std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;
  std::thread ticker_;
  bool ticker_running_ = false;
  bool stop_requested_ = false;
  std::chrono::milliseconds interval_{500};
};

}  // namespace toss::obs

#endif  // TOSS_OBS_TIMESERIES_H_
