// Request flight recorder: an always-on, fixed-memory ring of the last few
// thousand requests the service executed (DESIGN.md §15 "Telemetry &
// diagnostics").
//
// Every TossService::Run appends one 48-byte RequestRecord -- op kind,
// status, queue wait, execution time, cardinalities, which join engine ran,
// and a flags byte (prepared-cache hit, shed, mutation, trace-sampled).
// The write path is designed for the hot path: records land in
// cache-line-sized seqlock slots spread over sharded rings, so concurrent
// writers touch disjoint lines and never block, and readers (TelemetryDump,
// tests, the crash handler) snapshot without stopping writers. A torn read
// is detected by the seqlock and the slot is simply skipped.
//
// Alongside the compact records, a small mutex-guarded side ring retains
// the obs::Trace JSON tree for a 1-in-N sample of requests (slow and
// failed requests carry theirs in the slow-query log), so "what was this
// request doing" is answerable after the fact without re-running.

#ifndef TOSS_OBS_FLIGHT_RECORDER_H_
#define TOSS_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace toss::obs {

/// Operation kind of a recorded request. Values 0..6 deliberately match the
/// index order of the service's QueryRequest::op variant.
enum class RequestOp : uint8_t {
  kSelect = 0,
  kProject = 1,
  kGroupBy = 2,
  kJoin = 3,
  kInsert = 4,
  kReplace = 5,
  kRemove = 6,
  kUnknown = 255,
};

/// Which join engine executed (mirrors ExecStats::join_engine).
enum class JoinEngine : uint8_t { kNone = 0, kPairwise = 1, kTwig = 2 };

const char* RequestOpName(RequestOp op);
const char* JoinEngineName(JoinEngine e);

/// One completed (or shed) request, 48 bytes, trivially copyable so it can
/// be shuttled through the seqlock ring as six 64-bit words.
struct RequestRecord {
  // Bit flags for `flags`.
  static constexpr uint8_t kPreparedCacheHit = 1;  ///< plan came from cache
  static constexpr uint8_t kShed = 2;              ///< rejected at admission
  static constexpr uint8_t kTraceSampled = 4;      ///< full trace retained
  static constexpr uint8_t kMutation = 8;          ///< insert/replace/remove

  uint64_t id = 0;                 ///< recorder-minted, 0 = invalid slot
  uint64_t start_unix_micros = 0;  ///< wall-clock admission time
  float queue_wait_ms = 0.0f;      ///< admission queue wait
  float exec_ms = 0.0f;            ///< execution time (0 when shed)
  uint32_t candidate_docs = 0;
  uint32_t result_trees = 0;
  uint32_t expanded_terms = 0;
  uint32_t status = 0;  ///< numeric common::StatusCode
  uint8_t op = static_cast<uint8_t>(RequestOp::kUnknown);
  uint8_t engine = static_cast<uint8_t>(JoinEngine::kNone);
  uint8_t flags = 0;
  uint8_t reserved[5] = {};

  bool HasFlag(uint8_t f) const { return (flags & f) != 0; }

  /// The record as one JSON object (numeric status code; op and engine as
  /// short strings).
  common::JsonValue Json() const;
};
static_assert(sizeof(RequestRecord) == 48, "ring slots assume 6 words");
static_assert(std::is_trivially_copyable_v<RequestRecord>,
              "records are copied through atomic words");

/// A retained trace: the request's id plus its obs::Trace JSON tree.
struct SampledTrace {
  uint64_t id = 0;
  common::JsonValue trace;
};

/// The recorder. Writers are wait-free except under a pathological slot
/// collision (two in-flight writes 4096 records apart on one shard), where
/// the later writer briefly spins.
class FlightRecorder {
 public:
  static constexpr size_t kShards = 4;
  static constexpr size_t kSlotsPerShard = 1024;
  static constexpr size_t kCapacity = kShards * kSlotsPerShard;
  static constexpr size_t kSampledTraceCapacity = 32;

  /// Process-wide instance (never destroyed); what the service uses unless
  /// a test injects its own.
  static FlightRecorder& Global();

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Hands out unique, monotonically increasing request ids (from 1).
  uint64_t MintId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends `rec` (rec.id must be nonzero). Overwrites the oldest record
  /// in the writer's shard once the ring wraps.
  void Record(const RequestRecord& rec);

  /// Retains the trace tree of request `id`, evicting the oldest.
  void RetainTrace(uint64_t id, common::JsonValue trace);

  /// The newest consistent records across all shards, ascending by id, at
  /// most `max_records` of them. Lock-free with respect to writers.
  std::vector<RequestRecord> SnapshotRecords(size_t max_records = kCapacity)
      const;

  /// The retained traces, oldest first.
  std::vector<SampledTrace> SnapshotTraces() const;

  /// Total records ever appended (including overwritten ones).
  uint64_t TotalRecorded() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Forgets everything; ids keep increasing. For tests.
  void Reset();

  /// {"records":[...],"sampled_traces":[{"id":..,"trace":{...}},...]} with
  /// records ascending by id, capped at `max_records`.
  common::JsonValue Json(size_t max_records = 128) const;

 private:
  // One seqlock-protected record. seq even = stable, odd = write in
  // progress; 0 means never written. The payload lives in relaxed atomic
  // words so concurrent access is data-race-free (TSan-clean) by
  // construction; the seq protocol makes it *consistent*.
  struct alignas(64) Slot {
    std::atomic<uint32_t> seq{0};
    std::atomic<uint64_t> words[6] = {};
  };
  struct Shard {
    std::atomic<uint64_t> cursor{0};
    Slot slots[kSlotsPerShard];
  };

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> total_{0};
  Shard shards_[kShards];

  mutable std::mutex trace_mu_;
  std::vector<SampledTrace> traces_;  // ring, oldest at trace_head_
  size_t trace_head_ = 0;
};

}  // namespace toss::obs

#endif  // TOSS_OBS_FLIGHT_RECORDER_H_
