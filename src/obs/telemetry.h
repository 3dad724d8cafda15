// Telemetry facade: one JSON document that answers "what is this process
// doing and what has it just done" (DESIGN.md §15).
//
// TelemetryDump() assembles the JSON trees of the cumulative metrics
// snapshot, the windowed time-series, and the flight recorder's recent
// records + sampled traces, plus static build info, into a single
// self-describing JSON object and renders it once. It is what the bench harness writes at exit (TOSS_TELEMETRY_DUMP),
// what tools/tosstop.py diffs to render live rates, and what the
// fatal-signal crash handler spills as a last act.
//
// The crash handler is explicitly best-effort: rendering JSON allocates, and
// allocation inside a signal handler is not async-signal-safe. If the heap
// is the thing that crashed, the dump will not happen -- the handler's
// reentry guard keeps it from making things worse, and the signal is always
// re-raised with default disposition so the process still dies loudly.

#ifndef TOSS_OBS_TELEMETRY_H_
#define TOSS_OBS_TELEMETRY_H_

#include <chrono>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/timeseries.h"

namespace toss::obs {

class Telemetry {
 public:
  /// Process-wide instance (never destroyed). Owns the global TimeSeries
  /// over MetricsRegistry::Global(); the flight recorder is shared with
  /// FlightRecorder::Global().
  static Telemetry& Global();

  Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  TimeSeries& series() { return series_; }
  FlightRecorder& recorder() { return FlightRecorder::Global(); }

  /// Starts the global background ticker (idempotent).
  void StartTicker(
      std::chrono::milliseconds interval = std::chrono::milliseconds(500));
  void StopTicker();

  /// The full dump document:
  ///   {"ts_unix_ms":..,"build":{...},"metrics":{...},
  ///    "timeseries":{...},"flight_recorder":{...}}
  std::string DumpJson(size_t max_windows = 120,
                       size_t max_records = 128) const;

  /// DumpJson + trailing newline written to `path` (created/truncated).
  /// Returns false on any I/O failure.
  bool WriteDump(const std::string& path) const;

 private:
  TimeSeries series_;
};

/// Telemetry::Global().DumpJson() -- the one-call diagnostic entry point.
std::string TelemetryDump();

/// Installs fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL)
/// that write a best-effort telemetry dump to `path` before re-raising with
/// default disposition. The output file is pre-opened here so the handler
/// never touches the filesystem namespace. Returns false if the file cannot
/// be opened or handlers cannot be installed. Call at most once.
bool InstallCrashDump(const std::string& path);

}  // namespace toss::obs

#endif  // TOSS_OBS_TELEMETRY_H_
