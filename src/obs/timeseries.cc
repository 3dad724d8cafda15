#include "obs/timeseries.h"

#include <algorithm>

namespace toss::obs {

namespace {

uint64_t NowUnixMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

double TimeSeries::Window::RatePerSecond(const std::string& counter) const {
  auto it = counter_deltas.find(counter);
  if (it == counter_deltas.end() || duration_ms == 0) return 0.0;
  return static_cast<double>(it->second) * 1000.0 /
         static_cast<double>(duration_ms);
}

common::JsonValue TimeSeries::Window::Json() const {
  using common::JsonValue;
  const auto num = [](auto v) {
    return JsonValue::Number(static_cast<double>(v));
  };
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, delta] : counter_deltas) {
    JsonValue entry = JsonValue::Object();
    entry.Set("delta", num(delta));
    entry.Set("rate_per_s", num(RatePerSecond(name)));
    counters.Set(name, std::move(entry));
  }
  JsonValue gauge_values = JsonValue::Object();
  for (const auto& [name, v] : gauges) gauge_values.Set(name, num(v));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, h] : histogram_deltas) {
    JsonValue entry = JsonValue::Object();
    entry.Set("count", num(h.count));
    entry.Set("mean_ms", num(h.MeanMillis()));
    entry.Set("p50_ms", num(h.PercentileMillis(0.5)));
    entry.Set("p99_ms", num(h.PercentileMillis(0.99)));
    JsonValue buckets = JsonValue::Array();
    for (uint64_t c : h.counts) buckets.Append(num(c));
    entry.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("seq", num(seq));
  out.Set("start_unix_ms", num(start_unix_ms));
  out.Set("duration_ms", num(duration_ms));
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauge_values));
  out.Set("histograms", std::move(histograms));
  return out;
}

TimeSeries::TimeSeries(MetricsRegistry* registry, size_t capacity)
    : registry_(registry), capacity_(std::max<size_t>(capacity, 1)) {}

TimeSeries::~TimeSeries() { Stop(); }

void TimeSeries::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  AppendWindow(NowUnixMillis());
}

void TimeSeries::AppendWindow(uint64_t now_unix_ms) {
  MetricsRegistry::Snapshot snap = registry_->GetSnapshot();
  if (has_baseline_) {
    Window w;
    w.seq = next_seq_++;
    w.start_unix_ms = baseline_unix_ms_;
    w.duration_ms = now_unix_ms > baseline_unix_ms_
                        ? now_unix_ms - baseline_unix_ms_
                        : 1;
    for (const auto& [name, v] : snap.counters) {
      auto it = baseline_.counters.find(name);
      const uint64_t prev = it == baseline_.counters.end() ? 0 : it->second;
      if (v > prev) w.counter_deltas[name] = v - prev;
    }
    w.gauges = snap.gauges;
    for (const auto& [name, h] : snap.histograms) {
      auto it = baseline_.histograms.find(name);
      const Histogram::Snapshot delta =
          it == baseline_.histograms.end() ? h : h.DeltaSince(it->second);
      if (delta.count > 0) w.histogram_deltas[name] = delta;
    }
    windows_.push_back(std::move(w));
    while (windows_.size() > capacity_) windows_.pop_front();
  }
  baseline_ = std::move(snap);
  baseline_unix_ms_ = now_unix_ms;
  has_baseline_ = true;
}

void TimeSeries::Start(std::chrono::milliseconds interval) {
  std::lock_guard<std::mutex> lock(ticker_mu_);
  if (ticker_running_) return;
  interval_ = interval;
  stop_requested_ = false;
  ticker_running_ = true;
  Tick();  // establish the baseline before the first interval elapses
  ticker_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(ticker_mu_);
    while (!stop_requested_) {
      ticker_cv_.wait_for(lock, interval_, [this] { return stop_requested_; });
      if (stop_requested_) break;
      lock.unlock();
      Tick();
      lock.lock();
    }
  });
}

void TimeSeries::Stop() {
  std::thread joinable;
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    if (!ticker_running_) return;
    stop_requested_ = true;
    ticker_running_ = false;
    joinable = std::move(ticker_);
  }
  ticker_cv_.notify_all();
  if (joinable.joinable()) joinable.join();
}

bool TimeSeries::running() const {
  std::lock_guard<std::mutex> lock(ticker_mu_);
  return ticker_running_;
}

std::vector<TimeSeries::Window> TimeSeries::GetWindows(
    size_t max_windows) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = std::min(max_windows, windows_.size());
  return std::vector<Window>(windows_.end() - static_cast<ptrdiff_t>(n),
                             windows_.end());
}

double TimeSeries::WindowedPercentileMillis(const std::string& histogram,
                                            double q,
                                            size_t last_n_windows) const {
  std::lock_guard<std::mutex> lock(mu_);
  Histogram::Snapshot merged;
  const size_t n = std::min(last_n_windows, windows_.size());
  for (size_t i = windows_.size() - n; i < windows_.size(); ++i) {
    auto it = windows_[i].histogram_deltas.find(histogram);
    if (it == windows_[i].histogram_deltas.end()) continue;
    merged.count += it->second.count;
    merged.sum_nanos += it->second.sum_nanos;
    for (size_t b = 0; b < Histogram::kBuckets; ++b) {
      merged.counts[b] += it->second.counts[b];
    }
  }
  return merged.PercentileMillis(q);
}

common::JsonValue TimeSeries::Json(size_t max_windows) const {
  using common::JsonValue;
  std::chrono::milliseconds interval;
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    interval = interval_;
  }
  JsonValue windows = JsonValue::Array();
  for (const Window& w : GetWindows(max_windows)) windows.Append(w.Json());
  JsonValue out = JsonValue::Object();
  out.Set("interval_ms",
          JsonValue::Number(static_cast<double>(interval.count())));
  out.Set("windows", std::move(windows));
  return out;
}

void TimeSeries::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  windows_.clear();
  has_baseline_ = false;
  next_seq_ = 1;
}

}  // namespace toss::obs
