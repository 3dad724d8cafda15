#include "obs/telemetry.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>

#include "common/json.h"
#include "obs/metrics.h"

namespace toss::obs {

namespace {

common::JsonValue BuildInfoJson() {
  using common::JsonValue;
  JsonValue out = JsonValue::Object();
  out.Set("project", JsonValue::String("toss"));
  out.Set("cxx_standard", JsonValue::Number(__cplusplus / 100 % 100));
#if defined(__VERSION__)
  out.Set("compiler", JsonValue::String(__VERSION__));
#endif
#if defined(NDEBUG)
  out.Set("ndebug", JsonValue::Bool(true));
#else
  out.Set("ndebug", JsonValue::Bool(false));
#endif
#if defined(__SANITIZE_ADDRESS__)
  out.Set("asan", JsonValue::Bool(true));
#endif
#if defined(__SANITIZE_THREAD__)
  out.Set("tsan", JsonValue::Bool(true));
#endif
  return out;
}

uint64_t NowUnixMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Telemetry::Telemetry() : series_(&MetricsRegistry::Global()) {}

Telemetry& Telemetry::Global() {
  // Leaked like the registry: the crash handler may run at any point.
  static Telemetry* telemetry = new Telemetry();
  return *telemetry;
}

void Telemetry::StartTicker(std::chrono::milliseconds interval) {
  series_.Start(interval);
}

void Telemetry::StopTicker() { series_.Stop(); }

std::string Telemetry::DumpJson(size_t max_windows,
                                size_t max_records) const {
  using common::JsonValue;
  JsonValue doc = JsonValue::Object();
  doc.Set("ts_unix_ms",
          JsonValue::Number(static_cast<double>(NowUnixMillis())));
  doc.Set("build", BuildInfoJson());
  doc.Set("metrics", MetricsRegistry::Global().SnapshotJson());
  doc.Set("timeseries", series_.Json(max_windows));
  doc.Set("flight_recorder", FlightRecorder::Global().Json(max_records));
  return doc.Dump();
}

bool Telemetry::WriteDump(const std::string& path) const {
  const std::string doc = DumpJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  return (std::fclose(f) == 0) && ok;
}

std::string TelemetryDump() { return Telemetry::Global().DumpJson(); }

namespace {

// Crash-dump state. The fd is opened before any signal can fire; the guard
// makes the handler run at most once process-wide even if several threads
// fault together.
std::atomic<int> g_crash_fd{-1};
std::atomic<bool> g_crash_dump_ran{false};
constexpr int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};

void CrashHandler(int signo) {
  if (!g_crash_dump_ran.exchange(true, std::memory_order_acq_rel)) {
    const int fd = g_crash_fd.load(std::memory_order_acquire);
    if (fd >= 0) {
      // NOT async-signal-safe (allocates); best effort by design -- see the
      // header comment. A fault inside the renderer hits the reentry guard
      // above and falls through to the re-raise.
      const std::string doc = TelemetryDump();
      size_t off = 0;
      while (off < doc.size()) {
        const ssize_t n = ::write(fd, doc.data() + off, doc.size() - off);
        if (n <= 0) break;
        off += static_cast<size_t>(n);
      }
      (void)::write(fd, "\n", 1);
      (void)::fsync(fd);
    }
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

bool InstallCrashDump(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;
  int expected = -1;
  if (!g_crash_fd.compare_exchange_strong(expected, fd,
                                          std::memory_order_acq_rel)) {
    ::close(fd);  // already installed; keep the first fd
    return false;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = CrashHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  bool ok = true;
  for (int signo : kCrashSignals) {
    if (::sigaction(signo, &sa, nullptr) != 0) ok = false;
  }
  return ok;
}

}  // namespace toss::obs
