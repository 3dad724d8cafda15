#include "obs/flight_recorder.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "obs/metrics.h"

namespace toss::obs {

const char* RequestOpName(RequestOp op) {
  switch (op) {
    case RequestOp::kSelect:
      return "select";
    case RequestOp::kProject:
      return "project";
    case RequestOp::kGroupBy:
      return "group_by";
    case RequestOp::kJoin:
      return "join";
    case RequestOp::kInsert:
      return "insert";
    case RequestOp::kReplace:
      return "replace";
    case RequestOp::kRemove:
      return "remove";
    case RequestOp::kUnknown:
      break;
  }
  return "unknown";
}

const char* JoinEngineName(JoinEngine e) {
  switch (e) {
    case JoinEngine::kNone:
      return "none";
    case JoinEngine::kPairwise:
      return "pairwise";
    case JoinEngine::kTwig:
      return "twig";
  }
  return "none";
}

common::JsonValue RequestRecord::Json() const {
  using common::JsonValue;
  JsonValue doc = JsonValue::Object();
  doc.Set("id", JsonValue::Number(static_cast<double>(id)));
  doc.Set("start_unix_micros",
          JsonValue::Number(static_cast<double>(start_unix_micros)));
  doc.Set("op", JsonValue::String(RequestOpName(static_cast<RequestOp>(op))));
  doc.Set("status_code", JsonValue::Number(status));
  // Millisecond floats are stored as float32; round to 1us so the dump does
  // not spell out the float->double conversion noise.
  const auto ms = [](float v) {
    return JsonValue::Number(std::round(static_cast<double>(v) * 1000.0) /
                             1000.0);
  };
  doc.Set("queue_wait_ms", ms(queue_wait_ms));
  doc.Set("exec_ms", ms(exec_ms));
  doc.Set("candidate_docs", JsonValue::Number(candidate_docs));
  doc.Set("result_trees", JsonValue::Number(result_trees));
  doc.Set("expanded_terms", JsonValue::Number(expanded_terms));
  doc.Set("engine",
          JsonValue::String(JoinEngineName(static_cast<JoinEngine>(engine))));
  doc.Set("prepared_cache_hit", JsonValue::Bool(HasFlag(kPreparedCacheHit)));
  doc.Set("shed", JsonValue::Bool(HasFlag(kShed)));
  doc.Set("mutation", JsonValue::Bool(HasFlag(kMutation)));
  doc.Set("trace_sampled", JsonValue::Bool(HasFlag(kTraceSampled)));
  return doc;
}

FlightRecorder& FlightRecorder::Global() {
  // Leaked, like MetricsRegistry: the crash handler may read it during
  // process teardown.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(const RequestRecord& rec) {
  uint64_t words[6];
  std::memcpy(words, &rec, sizeof(words));

  Shard& shard = shards_[internal::ShardIndex(kShards)];
  const uint64_t ticket =
      shard.cursor.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = shard.slots[ticket % kSlotsPerShard];

  // Seqlock write. CAS into the odd state so that two writers whose tickets
  // collide on one slot (kSlotsPerShard apart, both still in flight --
  // vanishingly rare) serialize instead of interleaving their payloads.
  uint32_t seq;
  for (;;) {
    // Reload every pass: an odd value (a concurrent writer mid-payload)
    // short-circuits the CAS, so `seq` must not go stale.
    seq = slot.seq.load(std::memory_order_relaxed);
    if (seq % 2 == 0 &&
        slot.seq.compare_exchange_weak(seq, seq + 1,
                                       std::memory_order_relaxed)) {
      break;
    }
  }
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t i = 0; i < 6; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
  total_.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::RetainTrace(uint64_t id, common::JsonValue trace) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  if (traces_.size() < kSampledTraceCapacity) {
    traces_.push_back(SampledTrace{id, std::move(trace)});
  } else {
    traces_[trace_head_] = SampledTrace{id, std::move(trace)};
    trace_head_ = (trace_head_ + 1) % kSampledTraceCapacity;
  }
}

std::vector<RequestRecord> FlightRecorder::SnapshotRecords(
    size_t max_records) const {
  std::vector<RequestRecord> out;
  out.reserve(kCapacity);
  for (const Shard& shard : shards_) {
    for (const Slot& slot : shard.slots) {
      // Seqlock read with a few retries; a slot mid-write is skipped.
      for (int attempt = 0; attempt < 3; ++attempt) {
        const uint32_t s1 = slot.seq.load(std::memory_order_acquire);
        if (s1 == 0 || s1 % 2 != 0) continue;
        uint64_t words[6];
        for (size_t i = 0; i < 6; ++i) {
          words[i] = slot.words[i].load(std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        const uint32_t s2 = slot.seq.load(std::memory_order_relaxed);
        if (s1 != s2) continue;
        RequestRecord rec;
        std::memcpy(&rec, words, sizeof(rec));
        if (rec.id != 0) out.push_back(rec);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });
  if (out.size() > max_records) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(max_records));
  }
  return out;
}

std::vector<SampledTrace> FlightRecorder::SnapshotTraces() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  std::vector<SampledTrace> out;
  out.reserve(traces_.size());
  for (size_t i = 0; i < traces_.size(); ++i) {
    out.push_back(traces_[(trace_head_ + i) % traces_.size()]);
  }
  return out;
}

void FlightRecorder::Reset() {
  for (Shard& shard : shards_) {
    shard.cursor.store(0, std::memory_order_relaxed);
    for (Slot& slot : shard.slots) {
      // Leave seq even; zero id marks the slot invalid.
      for (auto& w : slot.words) w.store(0, std::memory_order_relaxed);
      slot.seq.store(0, std::memory_order_release);
    }
  }
  total_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(trace_mu_);
  traces_.clear();
  trace_head_ = 0;
}

common::JsonValue FlightRecorder::Json(size_t max_records) const {
  using common::JsonValue;
  JsonValue records = JsonValue::Array();
  for (const RequestRecord& rec : SnapshotRecords(max_records)) {
    records.Append(rec.Json());
  }
  JsonValue traces = JsonValue::Array();
  for (SampledTrace& t : SnapshotTraces()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("id", JsonValue::Number(static_cast<double>(t.id)));
    entry.Set("trace", std::move(t.trace));
    traces.Append(std::move(entry));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("total_recorded",
          JsonValue::Number(static_cast<double>(TotalRecorded())));
  doc.Set("records", std::move(records));
  doc.Set("sampled_traces", std::move(traces));
  return doc;
}

}  // namespace toss::obs
