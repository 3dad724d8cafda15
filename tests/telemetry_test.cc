// The always-on telemetry layer (DESIGN.md §15): the flight recorder must
// capture EVERY TossService::Run -- ok, failed, shed, deadline-expired,
// and mutations -- without torn records under concurrent writers; the
// windowed time-series must turn cumulative registry values into interval
// deltas and interpolated percentiles; the slow-query log must capture
// slow and failed requests WITH a rendered trace through a pluggable,
// fault-injectable sink; and TelemetryDump() must round-trip through the
// in-repo JSON parser (it is what tools/tosstop.py consumes).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/json.h"
#include "core/toss.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "service/toss_service.h"
#include "store/database.h"
#include "store/env.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define TOSS_TELEMETRY_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define TOSS_TELEMETRY_SANITIZED 1
#endif
#endif

namespace toss {
namespace {

namespace fs = std::filesystem;

using obs::FlightRecorder;
using obs::JoinEngine;
using obs::RequestOp;
using obs::RequestRecord;
using obs::SlowQueryLog;
using obs::TimeSeries;

// --- RequestRecord ---------------------------------------------------------

/// A JSON tree from literal text (test fixtures for traces).
common::JsonValue Tree(const std::string& text) {
  return *common::JsonValue::Parse(text);
}

RequestRecord MakeRecord(uint64_t id) {
  RequestRecord rec;
  rec.id = id;
  rec.start_unix_micros = 1700000000000000ull + id;
  rec.queue_wait_ms = 0.25f;
  rec.exec_ms = static_cast<float>(id) * 0.5f;
  rec.candidate_docs = static_cast<uint32_t>(id * 3);
  rec.result_trees = static_cast<uint32_t>(id * 5);
  rec.expanded_terms = static_cast<uint32_t>(id * 7);
  rec.status = static_cast<uint32_t>(id % 14);
  rec.op = static_cast<uint8_t>(RequestOp::kSelect);
  rec.engine = static_cast<uint8_t>(JoinEngine::kNone);
  rec.flags = RequestRecord::kPreparedCacheHit;
  return rec;
}

TEST(RequestRecordTest, JsonIsParseableAndCarriesFields) {
  RequestRecord rec = MakeRecord(42);
  rec.op = static_cast<uint8_t>(RequestOp::kJoin);
  rec.engine = static_cast<uint8_t>(JoinEngine::kTwig);
  rec.flags = RequestRecord::kShed | RequestRecord::kTraceSampled;

  auto doc = common::JsonValue::Parse(rec.Json().Dump());
  ASSERT_TRUE(doc.ok()) << doc.status() << " in " << rec.Json().Dump();
  EXPECT_EQ(doc->Get("id")->AsDouble(), 42.0);
  EXPECT_EQ(doc->Get("op")->AsString(), "join");
  EXPECT_EQ(doc->Get("engine")->AsString(), "twig");
  EXPECT_EQ(doc->Get("status_code")->AsDouble(), 0.0);
  EXPECT_EQ(doc->Get("candidate_docs")->AsDouble(), 126.0);
  ASSERT_NE(doc->Get("shed"), nullptr);
  EXPECT_TRUE(doc->Get("shed")->AsBool());
  EXPECT_TRUE(doc->Get("trace_sampled")->AsBool());
  EXPECT_FALSE(doc->Get("mutation")->AsBool());
}

// --- FlightRecorder units --------------------------------------------------

TEST(FlightRecorderTest, MintIdIsMonotonicFromOne) {
  FlightRecorder rec;
  uint64_t first = rec.MintId();
  EXPECT_EQ(first, 1u);
  for (uint64_t i = 1; i < 100; ++i) {
    EXPECT_EQ(rec.MintId(), first + i);
  }
}

TEST(FlightRecorderTest, RecordRoundTripsAllFields) {
  FlightRecorder rec;
  RequestRecord in = MakeRecord(rec.MintId());
  rec.Record(in);

  std::vector<RequestRecord> got = rec.SnapshotRecords();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, in.id);
  EXPECT_EQ(got[0].start_unix_micros, in.start_unix_micros);
  EXPECT_FLOAT_EQ(got[0].queue_wait_ms, in.queue_wait_ms);
  EXPECT_FLOAT_EQ(got[0].exec_ms, in.exec_ms);
  EXPECT_EQ(got[0].candidate_docs, in.candidate_docs);
  EXPECT_EQ(got[0].result_trees, in.result_trees);
  EXPECT_EQ(got[0].expanded_terms, in.expanded_terms);
  EXPECT_EQ(got[0].status, in.status);
  EXPECT_EQ(got[0].op, in.op);
  EXPECT_EQ(got[0].engine, in.engine);
  EXPECT_EQ(got[0].flags, in.flags);
  EXPECT_EQ(rec.TotalRecorded(), 1u);
}

TEST(FlightRecorderTest, WrapKeepsNewestAndStaysSorted) {
  FlightRecorder rec;
  const size_t total = FlightRecorder::kCapacity + 257;
  for (size_t i = 0; i < total; ++i) {
    rec.Record(MakeRecord(rec.MintId()));
  }
  EXPECT_EQ(rec.TotalRecorded(), total);

  // A single-threaded writer hashes to ONE shard (the shard index is
  // per-thread), so exactly that shard's slots survive: the newest
  // kSlotsPerShard records, sorted ascending.
  std::vector<RequestRecord> got = rec.SnapshotRecords();
  ASSERT_EQ(got.size(), FlightRecorder::kSlotsPerShard);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1].id, got[i].id);
  }
  EXPECT_EQ(got.back().id, static_cast<uint64_t>(total));
  EXPECT_EQ(got.front().id, total - FlightRecorder::kSlotsPerShard + 1);
}

TEST(FlightRecorderTest, SnapshotCapDropsOldest) {
  FlightRecorder rec;
  for (int i = 0; i < 100; ++i) rec.Record(MakeRecord(rec.MintId()));
  std::vector<RequestRecord> got = rec.SnapshotRecords(/*max_records=*/10);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front().id, 91u);
  EXPECT_EQ(got.back().id, 100u);
}

TEST(FlightRecorderTest, TraceRingEvictsOldest) {
  FlightRecorder rec;
  const size_t total = FlightRecorder::kSampledTraceCapacity + 5;
  for (size_t i = 1; i <= total; ++i) {
    rec.RetainTrace(i, Tree("{\"trace\":" + std::to_string(i) + "}"));
  }
  std::vector<obs::SampledTrace> traces = rec.SnapshotTraces();
  ASSERT_EQ(traces.size(), FlightRecorder::kSampledTraceCapacity);
  EXPECT_EQ(traces.front().id, 6u) << "oldest five must have been evicted";
  EXPECT_EQ(traces.back().id, total);
  for (size_t i = 1; i < traces.size(); ++i) {
    EXPECT_LT(traces[i - 1].id, traces[i].id);
  }
}

TEST(FlightRecorderTest, ResetForgetsRecordsButNotIds) {
  FlightRecorder rec;
  rec.Record(MakeRecord(rec.MintId()));
  rec.RetainTrace(1, Tree("{}"));
  uint64_t last = rec.MintId();
  rec.Reset();
  EXPECT_TRUE(rec.SnapshotRecords().empty());
  EXPECT_TRUE(rec.SnapshotTraces().empty());
  EXPECT_EQ(rec.TotalRecorded(), 0u);
  EXPECT_GT(rec.MintId(), last) << "ids must keep increasing across Reset";
}

TEST(FlightRecorderTest, JsonRoundTripsThroughParser) {
  FlightRecorder rec;
  for (int i = 0; i < 5; ++i) rec.Record(MakeRecord(rec.MintId()));
  rec.RetainTrace(3, Tree("{\"name\":\"root\"}"));

  auto doc = common::JsonValue::Parse(rec.Json().Dump());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Get("total_recorded")->AsDouble(), 5.0);
  ASSERT_NE(doc->Get("records"), nullptr);
  EXPECT_EQ(doc->Get("records")->size(), 5u);
  const common::JsonValue* traces = doc->Get("sampled_traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->size(), 1u);
  EXPECT_EQ(traces->At(0)->Get("id")->AsDouble(), 3.0);
  EXPECT_EQ(traces->At(0)->Get("trace")->Get("name")->AsString(), "root");
}

// Concurrent writers against a spinning reader. Every snapshotted record
// must satisfy the writer's field invariants (fields derived from id):
// a torn slot read would surface as a mismatched derived field. Runs
// under ThreadSanitizer via the service_smoke label.
TEST(FlightRecorderTest, ConcurrentWritersNeverTearRecords) {
  FlightRecorder rec;
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inconsistent{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const RequestRecord& r : rec.SnapshotRecords()) {
        if (r.candidate_docs != static_cast<uint32_t>(r.id * 3) ||
            r.result_trees != static_cast<uint32_t>(r.id * 5) ||
            r.expanded_terms != static_cast<uint32_t>(r.id * 7) ||
            r.status != static_cast<uint32_t>(r.id % 14)) {
          inconsistent.fetch_add(1);
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        rec.Record(MakeRecord(rec.MintId()));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(inconsistent.load(), 0u) << "seqlock let a torn record through";
  EXPECT_EQ(rec.TotalRecorded(), kWriters * kPerWriter);
  // Threads *probably* spread over distinct shards, but the per-thread
  // hash may collide; at least one full shard's worth must survive.
  std::vector<RequestRecord> final_snap = rec.SnapshotRecords();
  EXPECT_GE(final_snap.size(), FlightRecorder::kSlotsPerShard);
  for (size_t i = 1; i < final_snap.size(); ++i) {
    EXPECT_LT(final_snap[i - 1].id, final_snap[i].id);
  }
}

// --- TimeSeries ------------------------------------------------------------

TEST(TimeSeriesTest, FirstTickOnlyEstablishesBaseline) {
  obs::MetricsRegistry reg;
  TimeSeries ts(&reg, /*capacity=*/8);
  reg.GetCounter("a").Add(10);
  ts.Tick();
  EXPECT_TRUE(ts.GetWindows().empty());

  reg.GetCounter("a").Add(5);
  ts.Tick();
  std::vector<TimeSeries::Window> w = ts.GetWindows();
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].seq, 1u);
  ASSERT_EQ(w[0].counter_deltas.count("a"), 1u);
  EXPECT_EQ(w[0].counter_deltas.at("a"), 5u)
      << "the window must carry the delta, not the cumulative value";
}

TEST(TimeSeriesTest, WindowsCarryGaugesAndHistogramDeltas) {
  obs::MetricsRegistry reg;
  TimeSeries ts(&reg, 8);
  ts.Tick();

  reg.GetCounter("reqs").Add(20);
  reg.GetGauge("depth").Set(42);
  reg.GetHistogram("lat_ns").Record(700000);  // bucket 12: (512us, 1.05ms]
  reg.GetHistogram("lat_ns").Record(900000);
  ts.Tick();

  std::vector<TimeSeries::Window> w = ts.GetWindows();
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].gauges.at("depth"), 42);
  ASSERT_EQ(w[0].histogram_deltas.count("lat_ns"), 1u);
  const obs::Histogram::Snapshot& h = w[0].histogram_deltas.at("lat_ns");
  EXPECT_EQ(h.count, 2u);
  double p50 = h.PercentileMillis(0.5);
  EXPECT_GT(p50, 0.512);
  EXPECT_LE(p50, 1.049);
  EXPECT_GT(w[0].RatePerSecond("reqs"), 0.0);
  EXPECT_GT(w[0].duration_ms, 0u);

  // Zero-delta instruments are omitted from later windows.
  ts.Tick();
  w = ts.GetWindows();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[1].counter_deltas.count("reqs"), 0u);
  EXPECT_EQ(w[1].histogram_deltas.count("lat_ns"), 0u);
}

TEST(TimeSeriesTest, RegistryResetDegradesToEmptyWindow) {
  obs::MetricsRegistry reg;
  TimeSeries ts(&reg, 8);
  reg.GetCounter("a").Add(100);
  reg.GetHistogram("h").Record(1000);
  ts.Tick();
  reg.Reset();
  reg.GetCounter("a").Add(1);
  ts.Tick();  // cumulative value went 100 -> 1: clamp, don't underflow

  std::vector<TimeSeries::Window> w = ts.GetWindows();
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].counter_deltas.count("a"), 0u)
      << "clamped-to-zero delta must be omitted, not wrapped";
  EXPECT_EQ(w[0].histogram_deltas.count("h"), 0u);
}

TEST(TimeSeriesTest, CapacityEvictsOldestWindows) {
  obs::MetricsRegistry reg;
  TimeSeries ts(&reg, /*capacity=*/3);
  ts.Tick();
  for (int i = 0; i < 5; ++i) {
    reg.GetCounter("a").Increment();
    ts.Tick();
  }
  std::vector<TimeSeries::Window> w = ts.GetWindows();
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].seq, 3u);
  EXPECT_EQ(w[2].seq, 5u);

  std::vector<TimeSeries::Window> newest = ts.GetWindows(/*max_windows=*/1);
  ASSERT_EQ(newest.size(), 1u);
  EXPECT_EQ(newest[0].seq, 5u);
}

TEST(TimeSeriesTest, WindowedPercentileMergesRecentWindows) {
  obs::MetricsRegistry reg;
  TimeSeries ts(&reg, 8);
  ts.Tick();
  // Window 1: 95 fast samples. Window 2: 5 slow ones. Merged across both
  // windows the p99 must land in the slow bucket (8.39ms, 16.78ms].
  for (int i = 0; i < 95; ++i) reg.GetHistogram("h").Record(700000);
  ts.Tick();
  for (int i = 0; i < 5; ++i) reg.GetHistogram("h").Record(10000000);
  ts.Tick();

  double p99 = ts.WindowedPercentileMillis("h", 0.99, /*last_n_windows=*/2);
  EXPECT_GT(p99, 8.388);
  EXPECT_LE(p99, 16.778);
  // Only the newest window: all five samples are slow, so p50 is slow too.
  double p50_newest = ts.WindowedPercentileMillis("h", 0.5, 1);
  EXPECT_GT(p50_newest, 8.388);
  EXPECT_EQ(ts.WindowedPercentileMillis("absent", 0.99, 2), 0.0);
}

TEST(TimeSeriesTest, JsonRoundTripsThroughParser) {
  obs::MetricsRegistry reg;
  TimeSeries ts(&reg, 8);
  ts.Tick();
  reg.GetCounter("a").Add(3);
  reg.GetHistogram("h").Record(700000);
  ts.Tick();

  auto doc = common::JsonValue::Parse(ts.Json().Dump());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_GT(doc->Get("interval_ms")->AsDouble(), 0.0);
  const common::JsonValue* windows = doc->Get("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_EQ(windows->size(), 1u);
  const common::JsonValue* w0 = windows->At(0);
  EXPECT_EQ(w0->Get("counters")->Get("a")->Get("delta")->AsDouble(), 3.0);
  const common::JsonValue* h = w0->Get("histograms")->Get("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Get("count")->AsDouble(), 1.0);
  EXPECT_EQ(h->Get("buckets")->size(), obs::Histogram::kBuckets);
}

// Background ticker vs. manual ticks vs. readers; runs under TSan via the
// service_smoke label. Start/Stop are also checked for idempotence.
TEST(TimeSeriesTest, TickerRunsAndSurvivesConcurrentReaders) {
  obs::MetricsRegistry reg;
  TimeSeries ts(&reg, 64);
  ts.Start(std::chrono::milliseconds(1));
  ts.Start(std::chrono::milliseconds(1));  // idempotent
  EXPECT_TRUE(ts.running());

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    while (!stop.load()) {
      reg.GetCounter("ticker.reqs").Increment();
      reg.GetHistogram("ticker.lat").Record(500000);
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    while (!stop.load()) {
      ts.GetWindows(4);
      ts.WindowedPercentileMillis("ticker.lat", 0.99, 4);
      ts.Json(2);
      std::this_thread::yield();
    }
  });

  // Wait (bounded) until the ticker has produced a few windows.
  for (int i = 0; i < 2000 && ts.GetWindows().size() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(ts.GetWindows().size(), 3u);
  stop.store(true);
  mutator.join();
  reader.join();
  ts.Stop();
  ts.Stop();  // idempotent
  EXPECT_FALSE(ts.running());
  EXPECT_GE(ts.GetWindows().size(), 3u) << "windows must survive Stop";
}

// --- SlowQueryLog ----------------------------------------------------------

TEST(SlowQueryLogTest, ThresholdAndErrorPolicy) {
  std::vector<std::string> lines;
  SlowQueryLog::Options opts;
  opts.slow_threshold_ms = 10.0;
  opts.log_errors = true;
  SlowQueryLog log([&](const std::string& l) { lines.push_back(l); return true; },
                   opts);

  RequestRecord fast_ok = MakeRecord(1);
  fast_ok.exec_ms = 5.0f;
  fast_ok.status = 0;
  EXPECT_FALSE(log.ShouldLog(fast_ok));

  RequestRecord slow_ok = MakeRecord(2);
  slow_ok.exec_ms = 15.0f;
  slow_ok.status = 0;
  EXPECT_TRUE(log.ShouldLog(slow_ok));

  RequestRecord fast_failed = MakeRecord(3);
  fast_failed.exec_ms = 0.1f;
  fast_failed.status = static_cast<uint32_t>(StatusCode::kNotFound);
  EXPECT_TRUE(log.ShouldLog(fast_failed));

  SlowQueryLog::Options quiet = opts;
  quiet.log_errors = false;
  SlowQueryLog no_errors([&](const std::string&) { return true; }, quiet);
  EXPECT_FALSE(no_errors.ShouldLog(fast_failed));

  SlowQueryLog::Options all = opts;
  all.slow_threshold_ms = 0.0;  // <= 0 logs everything
  SlowQueryLog log_all([&](const std::string&) { return true; }, all);
  EXPECT_TRUE(log_all.ShouldLog(fast_ok));
}

TEST(SlowQueryLogTest, LogRendersParseableLineWithTraceAndStats) {
  std::vector<std::string> lines;
  SlowQueryLog log([&](const std::string& l) { lines.push_back(l); return true; },
                   {});
  RequestRecord rec = MakeRecord(7);
  rec.status = static_cast<uint32_t>(StatusCode::kNotFound);
  log.Log(rec, "NotFound: no such collection \"x\"",
          Tree("{\"name\":\"select\",\"children\":[]}"));
  log.Log(rec, "NotFound", common::JsonValue());  // no trace -> null

  ASSERT_EQ(lines.size(), 2u);
  auto doc = common::JsonValue::Parse(lines[0]);
  ASSERT_TRUE(doc.ok()) << doc.status() << " in " << lines[0];
  EXPECT_EQ(doc->Get("record")->Get("id")->AsDouble(), 7.0);
  EXPECT_EQ(doc->Get("status")->AsString(),
            "NotFound: no such collection \"x\"");
  EXPECT_EQ(doc->Get("trace")->Get("name")->AsString(), "select");

  auto doc2 = common::JsonValue::Parse(lines[1]);
  ASSERT_TRUE(doc2.ok()) << doc2.status();
  EXPECT_TRUE(doc2->Get("trace")->is_null());

  SlowQueryLog::Stats stats = log.GetStats();
  EXPECT_EQ(stats.written, 2u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(SlowQueryLogTest, SinkFailureCountsAsDropped) {
  int calls = 0;
  SlowQueryLog log([&](const std::string&) { return ++calls > 1; }, {});
  log.Log(MakeRecord(1), "ok", common::JsonValue());  // first write fails
  log.Log(MakeRecord(2), "ok", common::JsonValue());
  SlowQueryLog::Stats stats = log.GetStats();
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.written, 1u);
}

TEST(SlowQueryLogTest, EnvAppendLineSinkWritesAndSurvivesFaults) {
  std::string path =
      (fs::temp_directory_path() / "toss_slow_log_sink.jsonl").string();
  fs::remove(path);
  obs::LineSink sink = service::EnvAppendLineSink(store::Env::Default(), path);
  ASSERT_TRUE(sink("{\"a\":1}"));
  ASSERT_TRUE(sink("{\"b\":2}"));
  auto text = store::Env::Default()->ReadFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "{\"a\":1}\n{\"b\":2}\n");
  fs::remove(path);

  // Through a fault-injected Env the sink reports failure (and the log
  // counts a drop) instead of surfacing an error into the request path.
  store::FaultInjectionEnv::Options fopts;
  fopts.fail_at_op = 0;
  fopts.kind = store::FaultInjectionEnv::FaultKind::kNoSpace;
  store::FaultInjectionEnv fenv(store::Env::Default(), fopts);
  SlowQueryLog log(service::EnvAppendLineSink(&fenv, path), {});
  log.Log(MakeRecord(1), "ok", common::JsonValue());
  EXPECT_EQ(log.GetStats().dropped, 1u);
  EXPECT_EQ(log.GetStats().written, 0u);
  fs::remove(path);
}

// --- Service integration ---------------------------------------------------

class TelemetryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto lib = db_.CreateCollection("lib");
    ASSERT_TRUE(lib.ok()) << lib.status();
    for (int i = 0; i < 8; ++i) {
      std::string xml = "<book><title>t" + std::to_string(i) +
                        "</title><year>199" + std::to_string(i % 3) +
                        "</year></book>";
      auto id = (*lib)->InsertXml("k" + std::to_string(i), xml);
      ASSERT_TRUE(id.ok()) << id.status();
    }
  }

  static tax::PatternTree TitlePattern() {
    tax::PatternTree pt;
    int root = pt.AddRoot();
    pt.AddChild(root, tax::EdgeKind::kPc);
    pt.SetCondition(
        tax::ParseCondition("$1.tag = \"book\" & $2.tag = \"title\"").value());
    return pt;
  }

  static const RequestRecord* FindByStatus(
      const std::vector<RequestRecord>& records, StatusCode code) {
    for (const RequestRecord& r : records) {
      if (r.status == static_cast<uint32_t>(code)) return &r;
    }
    return nullptr;
  }

  store::Database db_;
};

TEST_F(TelemetryServiceTest, EveryRunOutcomeLandsInTheRecorder) {
  auto recorder = std::make_unique<FlightRecorder>();
  service::ServiceOptions opts;
  opts.flight_recorder = recorder.get();
  opts.trace_sample_every = 1;  // retain a trace for every request
  service::TossService svc(&db_, nullptr, nullptr, opts);

  // ok
  service::QueryResponse ok_resp =
      svc.Run(service::QueryRequest::Select("lib", TitlePattern(), {1}));
  ASSERT_TRUE(ok_resp.ok()) << ok_resp.status;
  EXPECT_GT(ok_resp.trees.size(), 0u);
  // failed: collection does not exist
  service::QueryResponse nf_resp =
      svc.Run(service::QueryRequest::Select("nope", TitlePattern(), {1}));
  EXPECT_TRUE(nf_resp.status.IsNotFound()) << nf_resp.status;
  // deadline: an already-expired token fails before any work
  CancelToken expired = CancelToken::AfterMillis(0);
  service::QueryRequest dl_req =
      service::QueryRequest::Select("lib", TitlePattern(), {1});
  dl_req.cancel = &expired;
  EXPECT_TRUE(svc.Run(dl_req).status.IsDeadlineExceeded());
  // cancelled
  CancelToken cancelled;
  cancelled.Cancel();
  service::QueryRequest c_req =
      service::QueryRequest::Select("lib", TitlePattern(), {1});
  c_req.cancel = &cancelled;
  EXPECT_TRUE(svc.Run(c_req).status.IsCancelled());

  std::vector<RequestRecord> records = recorder->SnapshotRecords();
  ASSERT_EQ(records.size(), 4u) << "every Run must append exactly one record";
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].id, records[i].id);
  }
  for (const RequestRecord& r : records) {
    EXPECT_EQ(r.op, static_cast<uint8_t>(RequestOp::kSelect));
    EXPECT_GT(r.start_unix_micros, 0u);
    EXPECT_FALSE(r.HasFlag(RequestRecord::kMutation));
  }
  const RequestRecord* ok_rec = FindByStatus(records, StatusCode::kOk);
  ASSERT_NE(ok_rec, nullptr);
  EXPECT_EQ(ok_rec->result_trees, ok_resp.trees.size());
  EXPECT_NE(FindByStatus(records, StatusCode::kNotFound), nullptr);
  EXPECT_NE(FindByStatus(records, StatusCode::kDeadlineExceeded), nullptr);
  EXPECT_NE(FindByStatus(records, StatusCode::kCancelled), nullptr);

  // trace_sample_every=1: the successful request retained a full trace even
  // though the caller never set collect_trace...
  std::vector<obs::SampledTrace> traces = recorder->SnapshotTraces();
  ASSERT_GE(traces.size(), 1u);
  bool found = false;
  for (const obs::SampledTrace& t : traces) {
    if (t.id != ok_rec->id) continue;
    found = true;
    auto doc = common::JsonValue::Parse(t.trace.Dump());
    EXPECT_TRUE(doc.ok()) << doc.status();
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(ok_rec->HasFlag(RequestRecord::kTraceSampled));
  // ...and the response itself was NOT burdened with the telemetry trace.
  EXPECT_EQ(ok_resp.trace, nullptr);
}

TEST_F(TelemetryServiceTest, ShedRequestsAreRecordedWithTheShedFlag) {
  auto recorder = std::make_unique<FlightRecorder>();
  service::ServiceOptions opts;
  opts.flight_recorder = recorder.get();
  opts.max_inflight = 1;
  opts.max_queue = 0;
  service::TossService svc(&db_, nullptr, nullptr, opts);

  // Two clients race for one slot with no queue: any overlap sheds the
  // loser. Loop (bounded) until one shed has been observed.
  std::atomic<bool> shed_seen{false};
  auto client = [&] {
    for (int i = 0; i < 20000 && !shed_seen.load(); ++i) {
      service::QueryResponse r =
          svc.Run(service::QueryRequest::Select("lib", TitlePattern(), {1}));
      if (r.status.IsResourceExhausted()) shed_seen.store(true);
    }
  };
  std::thread a(client), b(client);
  a.join();
  b.join();
  ASSERT_TRUE(shed_seen.load());

  std::vector<RequestRecord> records = recorder->SnapshotRecords();
  const RequestRecord* shed =
      FindByStatus(records, StatusCode::kResourceExhausted);
  ASSERT_NE(shed, nullptr) << "shed requests must still be recorded";
  EXPECT_TRUE(shed->HasFlag(RequestRecord::kShed));
  EXPECT_EQ(shed->exec_ms, 0.0f) << "a shed request never executed";
}

TEST_F(TelemetryServiceTest, MutationsAreRecordedWithTheMutationFlag) {
  std::string dir = (fs::temp_directory_path() / "toss_telemetry_mut").string();
  fs::remove_all(dir);
  auto db = store::Database::OpenDurable(dir, store::Env::Default());
  ASSERT_TRUE(db.ok()) << db.status();

  auto recorder = std::make_unique<FlightRecorder>();
  service::ServiceOptions opts;
  opts.flight_recorder = recorder.get();
  service::TossService svc(&*db, nullptr, nullptr, opts);

  ASSERT_TRUE(
      svc.Run(service::QueryRequest::Insert("lib", "a", "<b><t>x</t></b>"))
          .ok());
  ASSERT_TRUE(
      svc.Run(service::QueryRequest::Replace("lib", "a", "<b><t>y</t></b>"))
          .ok());
  ASSERT_TRUE(svc.Run(service::QueryRequest::Remove("lib", "a")).ok());
  // Failed mutation: replacing a key that no longer exists.
  EXPECT_TRUE(svc.Run(service::QueryRequest::Replace("lib", "a", "<b/>"))
                  .status.IsNotFound());

  std::vector<RequestRecord> records = recorder->SnapshotRecords();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].op, static_cast<uint8_t>(RequestOp::kInsert));
  EXPECT_EQ(records[1].op, static_cast<uint8_t>(RequestOp::kReplace));
  EXPECT_EQ(records[2].op, static_cast<uint8_t>(RequestOp::kRemove));
  EXPECT_EQ(records[3].op, static_cast<uint8_t>(RequestOp::kReplace));
  for (const RequestRecord& r : records) {
    EXPECT_TRUE(r.HasFlag(RequestRecord::kMutation));
  }
  EXPECT_EQ(records[3].status, static_cast<uint32_t>(StatusCode::kNotFound));
  fs::remove_all(dir);
}

TEST_F(TelemetryServiceTest, SlowAndFailedRequestsLandInSlowLogWithTrace) {
  std::vector<std::string> lines;
  SlowQueryLog::Options log_opts;
  log_opts.slow_threshold_ms = 0.0;  // every request is "slow": exercise the
                                     // write path without a slow fixture
  SlowQueryLog slow_log(
      [&](const std::string& l) { lines.push_back(l); return true; },
      log_opts);

  auto recorder = std::make_unique<FlightRecorder>();
  service::ServiceOptions opts;
  opts.flight_recorder = recorder.get();
  opts.trace_sample_every = 0;  // traces below come from the slow log alone
  opts.slow_log = &slow_log;
  service::TossService svc(&db_, nullptr, nullptr, opts);

  service::QueryResponse ok_resp =
      svc.Run(service::QueryRequest::Select("lib", TitlePattern(), {1}));
  ASSERT_TRUE(ok_resp.ok()) << ok_resp.status;
  service::QueryResponse failed =
      svc.Run(service::QueryRequest::Select("nope", TitlePattern(), {1}));
  ASSERT_TRUE(failed.status.IsNotFound());

  ASSERT_EQ(lines.size(), 2u);
  // The slow (ok) request: record + rendered trace, parseable.
  auto slow_doc = common::JsonValue::Parse(lines[0]);
  ASSERT_TRUE(slow_doc.ok()) << slow_doc.status() << " in " << lines[0];
  const common::JsonValue* rec0 = slow_doc->Get("record");
  ASSERT_NE(rec0, nullptr);
  EXPECT_EQ(rec0->Get("status_code")->AsDouble(), 0.0);
  EXPECT_EQ(rec0->Get("op")->AsString(), "select");
  const common::JsonValue* trace0 = slow_doc->Get("trace");
  ASSERT_NE(trace0, nullptr);
  EXPECT_FALSE(trace0->is_null())
      << "slow-log entries must carry a rendered trace";
  EXPECT_TRUE(trace0->is_object());
  // The failed request: error status text plus its own trace.
  auto fail_doc = common::JsonValue::Parse(lines[1]);
  ASSERT_TRUE(fail_doc.ok()) << fail_doc.status() << " in " << lines[1];
  EXPECT_EQ(fail_doc->Get("record")->Get("status_code")->AsDouble(),
            static_cast<double>(StatusCode::kNotFound));
  EXPECT_NE(fail_doc->Get("status")->AsString().find("NotFound"),
            std::string::npos)
      << fail_doc->Get("status")->AsString();

  EXPECT_EQ(slow_log.GetStats().written, 2u);
  // The telemetry trace never leaks into the response.
  EXPECT_EQ(ok_resp.trace, nullptr);

  // A high threshold with log_errors stops logging ok requests but keeps
  // logging failures.
  lines.clear();
  SlowQueryLog quiet_log(
      [&](const std::string& l) { lines.push_back(l); return true; },
      {/*slow_threshold_ms=*/1e9, /*log_errors=*/true});
  service::ServiceOptions opts2 = opts;
  opts2.slow_log = &quiet_log;
  service::TossService svc2(&db_, nullptr, nullptr, opts2);
  ASSERT_TRUE(
      svc2.Run(service::QueryRequest::Select("lib", TitlePattern(), {1})).ok());
  EXPECT_TRUE(svc2.Run(service::QueryRequest::Select("nope", TitlePattern(),
                                                     {1}))
                  .status.IsNotFound());
  ASSERT_EQ(lines.size(), 1u) << "only the failure should be logged";
  auto only = common::JsonValue::Parse(lines[0]);
  ASSERT_TRUE(only.ok());
  EXPECT_EQ(only->Get("record")->Get("status_code")->AsDouble(),
            static_cast<double>(StatusCode::kNotFound));
}

TEST_F(TelemetryServiceTest, CollectTraceStillReachesTheCaller) {
  // The telemetry plumbing (sampling + slow log) must not break the
  // explicit EXPLAIN ANALYZE path: collect_trace still returns the trace.
  SlowQueryLog slow_log([](const std::string&) { return true; }, {});
  auto recorder = std::make_unique<FlightRecorder>();
  service::ServiceOptions opts;
  opts.flight_recorder = recorder.get();
  opts.trace_sample_every = 1;
  opts.slow_log = &slow_log;
  service::TossService svc(&db_, nullptr, nullptr, opts);

  service::QueryRequest req =
      service::QueryRequest::Select("lib", TitlePattern(), {1});
  req.collect_trace = true;
  service::QueryResponse resp = svc.Run(req);
  ASSERT_TRUE(resp.ok()) << resp.status;
  ASSERT_NE(resp.trace, nullptr);
}

// --- TelemetryDump ---------------------------------------------------------

TEST(TelemetryDumpTest, DumpRoundTripsThroughParser) {
  obs::Telemetry& tel = obs::Telemetry::Global();
  // Give the dump something to show: registry activity bracketed by two
  // manual ticks (no background ticker needed), plus one recorded request.
  tel.series().Tick();
  obs::Metrics().GetCounter("telemetry_test.reqs").Add(9);
  obs::Metrics().GetHistogram("telemetry_test.lat").Record(700000);
  tel.series().Tick();
  RequestRecord rec = MakeRecord(tel.recorder().MintId());
  tel.recorder().Record(rec);

  std::string dump = obs::TelemetryDump();
  auto doc = common::JsonValue::Parse(dump);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_GT(doc->Get("ts_unix_ms")->AsDouble(), 0.0);
  ASSERT_NE(doc->Get("build"), nullptr);
  EXPECT_FALSE(doc->Get("build")->Get("project")->AsString().empty());

  // Cumulative metrics are present with raw buckets (what tosstop diffs).
  const common::JsonValue* metrics = doc->Get("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GE(metrics->Get("counters")->Get("telemetry_test.reqs")->AsDouble(),
            9.0);
  const common::JsonValue* hist =
      metrics->Get("histograms")->Get("telemetry_test.lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Get("buckets")->size(), obs::Histogram::kBuckets);

  // The windowed series recovered the interval delta.
  const common::JsonValue* windows = doc->Get("timeseries")->Get("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_GE(windows->size(), 1u);
  bool delta_seen = false;
  for (size_t i = 0; i < windows->size(); ++i) {
    const common::JsonValue* c =
        windows->At(i)->Get("counters")->Get("telemetry_test.reqs");
    if (c != nullptr && c->Get("delta")->AsDouble() == 9.0) delta_seen = true;
  }
  EXPECT_TRUE(delta_seen);

  // The flight recorder's recent records ride along.
  const common::JsonValue* fr = doc->Get("flight_recorder");
  ASSERT_NE(fr, nullptr);
  ASSERT_GE(fr->Get("records")->size(), 1u);
  bool rec_seen = false;
  for (size_t i = 0; i < fr->Get("records")->size(); ++i) {
    if (fr->Get("records")->At(i)->Get("id")->AsDouble() ==
        static_cast<double>(rec.id)) {
      rec_seen = true;
    }
  }
  EXPECT_TRUE(rec_seen);
}

TEST(TelemetryDumpTest, WriteDumpProducesReadableFile) {
  std::string path =
      (fs::temp_directory_path() / "toss_telemetry_dump.json").string();
  fs::remove(path);
  ASSERT_TRUE(obs::Telemetry::Global().WriteDump(path));
  auto text = store::Env::Default()->ReadFile(path);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(text->back(), '\n');
  auto doc = common::JsonValue::Parse(*text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_NE(doc->Get("metrics"), nullptr);
  fs::remove(path);
  EXPECT_FALSE(obs::Telemetry::Global().WriteDump("/nonexistent-dir/x.json"));
}

// A fatal signal spills a best-effort dump before the process dies. Runs in
// a forked child so the death is contained; skipped under sanitizers, whose
// own signal handlers and allocator interceptors own this territory.
#if !defined(TOSS_TELEMETRY_SANITIZED)
TEST(TelemetryDumpTest, CrashHandlerWritesDumpOnFatalSignal) {
  std::string path =
      (fs::temp_directory_path() / "toss_crash_dump.json").string();
  fs::remove(path);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: record some state, install the handler, die on SIGSEGV.
    obs::Metrics().GetCounter("crash_test.marker").Add(123);
    obs::FlightRecorder::Global().Record(
        MakeRecord(obs::FlightRecorder::Global().MintId()));
    if (!obs::InstallCrashDump(path)) _exit(10);
    raise(SIGSEGV);
    _exit(11);  // unreachable
  }

  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child must die from the re-raised signal, not exit cleanly";
  EXPECT_EQ(WTERMSIG(wstatus), SIGSEGV);

  auto text = store::Env::Default()->ReadFile(path);
  ASSERT_TRUE(text.ok()) << "crash handler left no dump: " << text.status();
  auto doc = common::JsonValue::Parse(*text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(
      doc->Get("metrics")->Get("counters")->Get("crash_test.marker")
          ->AsDouble(),
      123.0);
  fs::remove(path);
}
#endif  // !TOSS_TELEMETRY_SANITIZED

}  // namespace
}  // namespace toss
