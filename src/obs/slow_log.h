// Slow-query log: JSONL lines for requests that crossed a latency threshold
// or ended badly (DESIGN.md §15).
//
// Policy lives here (ShouldLog); I/O is delegated to a LineSink the caller
// provides, so the service can route lines through its pluggable Env (and
// tests through FaultInjectionEnv or an in-memory vector). The sink returns
// false on write failure; failed lines are counted as dropped and never
// retried -- the slow log is diagnostics, not a ledger, and must not add
// failure modes to the request path.
//
// This layer sits below common/ in the link order (toss_common depends on
// toss_obs), so the sink deals in bool and pre-rendered strings rather than
// Status values.

#ifndef TOSS_OBS_SLOW_LOG_H_
#define TOSS_OBS_SLOW_LOG_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/flight_recorder.h"

namespace toss::obs {

/// Writes one rendered line (no trailing newline); returns false on failure.
using LineSink = std::function<bool(const std::string&)>;

class SlowQueryLog {
 public:
  struct Options {
    /// Requests with exec_ms at or above this are logged. <= 0 logs all.
    double slow_threshold_ms = 100.0;
    /// Also log every request whose status is not OK (shed requests and
    /// deadline misses land here regardless of how fast they failed).
    bool log_errors = true;
  };

  struct Stats {
    uint64_t written = 0;
    uint64_t dropped = 0;  ///< sink returned false
  };

  SlowQueryLog(LineSink sink, Options options);

  const Options& options() const { return options_; }

  bool ShouldLog(const RequestRecord& record) const;

  /// Renders and writes one JSONL line:
  ///   {"record":{...},"status":"<status_text>","trace":{...}|null}
  /// `status_text` is the human status string (rendered by the caller, which
  /// can see common::Status); `trace` is the obs::Trace JSON tree, or null
  /// for none.
  void Log(const RequestRecord& record, const std::string& status_text,
           const common::JsonValue& trace);

  Stats GetStats() const;

 private:
  const LineSink sink_;
  const Options options_;
  mutable std::mutex mu_;  // serializes sink writes and stats
  Stats stats_;
};

}  // namespace toss::obs

#endif  // TOSS_OBS_SLOW_LOG_H_
