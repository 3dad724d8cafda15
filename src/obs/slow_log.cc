#include "obs/slow_log.h"

#include <utility>

#include "obs/metrics.h"

namespace toss::obs {

SlowQueryLog::SlowQueryLog(LineSink sink, Options options)
    : sink_(std::move(sink)), options_(options) {}

bool SlowQueryLog::ShouldLog(const RequestRecord& record) const {
  if (options_.log_errors && record.status != 0) return true;
  return static_cast<double>(record.exec_ms) >= options_.slow_threshold_ms;
}

void SlowQueryLog::Log(const RequestRecord& record,
                       const std::string& status_text,
                       const common::JsonValue& trace) {
  static Counter& written = Metrics().GetCounter("obs.slow_log.written");
  static Counter& dropped = Metrics().GetCounter("obs.slow_log.dropped");

  common::JsonValue doc = common::JsonValue::Object();
  doc.Set("record", record.Json());
  doc.Set("status", common::JsonValue::String(status_text));
  doc.Set("trace", trace);
  const std::string line = doc.Dump();

  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ && sink_(line)) {
    ++stats_.written;
    written.Increment();
  } else {
    ++stats_.dropped;
    dropped.Increment();
  }
}

SlowQueryLog::Stats SlowQueryLog::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace toss::obs
