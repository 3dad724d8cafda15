#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/timer.h"
#include "common/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace toss::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(CounterTest, AddIncrementValueReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  // Funnels increments through the real worker pool so the sharded
  // relaxed-atomic path is exercised by genuinely concurrent threads (and
  // by TSan-less ASan/UBSan in the sanitize preset).
  WorkerPool pool(4);
  Counter c;
  Histogram h;
  constexpr size_t kTasks = 2000;
  constexpr uint64_t kPerTask = 7;
  Status st = pool.ParallelFor(kTasks, [&](size_t) {
    c.Add(kPerTask);
    h.Record(1000);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(c.Value(), kTasks * kPerTask);
  EXPECT_EQ(h.GetSnapshot().count, kTasks);
}

TEST(GaugeTest, SetAddValueReset) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundsGrowFromTwoFiftySix) {
  EXPECT_EQ(Histogram::UpperBound(0), 256u);
  EXPECT_EQ(Histogram::UpperBound(1), 512u);
  EXPECT_EQ(Histogram::UpperBound(2), 1024u);
  EXPECT_EQ(Histogram::UpperBound(Histogram::kBuckets - 1), UINT64_MAX);
}

TEST(HistogramTest, RecordLandsInTheRightBucket) {
  Histogram h;
  h.Record(1);    // <= 256 -> bucket 0
  h.Record(256);  // boundary is inclusive -> bucket 0
  h.Record(257);  // -> bucket 1
  h.Record(512);  // -> bucket 1
  h.Record(513);  // -> bucket 2
  h.Record(UINT64_MAX);  // -> overflow bucket
  Histogram::Snapshot s = h.GetSnapshot();
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[Histogram::kBuckets - 1], 1u);
}

TEST(HistogramTest, SnapshotStatsAndReset) {
  Histogram h;
  h.Record(1'000'000);  // 1 ms
  h.Record(3'000'000);  // 3 ms
  Histogram::Snapshot s = h.GetSnapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.sum_nanos, 4'000'000u);
  EXPECT_DOUBLE_EQ(s.MeanMillis(), 2.0);
  // Quantile estimates are bucket upper bounds: conservative, never below
  // the recorded value.
  EXPECT_GE(s.QuantileUpperBoundMillis(0.99), 3.0);
  h.Reset();
  EXPECT_EQ(h.GetSnapshot().count, 0u);
  EXPECT_DOUBLE_EQ(h.GetSnapshot().MeanMillis(), 0.0);
}

TEST(HistogramTest, PercentileMillisInterpolatesWithinBuckets) {
  Histogram h;
  // 100 samples spread evenly through bucket 12 ((512us, 1.049ms]).
  for (int i = 1; i <= 100; ++i) {
    h.Record(524'288 + static_cast<uint64_t>(i) * 5'000);
  }
  Histogram::Snapshot s = h.GetSnapshot();
  const double p50 = s.PercentileMillis(0.5);
  const double p99 = s.PercentileMillis(0.99);
  // Interpolated values stay inside the bucket and are ordered.
  EXPECT_GT(p50, 0.524288);
  EXPECT_LE(p50, 1.048576);
  EXPECT_GT(p99, p50);
  EXPECT_LE(p99, 1.048576);
  // Never above the conservative bucket-upper-bound estimate.
  EXPECT_LE(p50, s.QuantileUpperBoundMillis(0.5));
  EXPECT_LE(p99, s.QuantileUpperBoundMillis(0.99));
}

TEST(HistogramTest, PercentileMillisKnownDistribution) {
  Histogram h;
  // 95 fast samples (~1us -> bucket 2) and 5 slow (~10ms -> bucket 16):
  // p50 must report a fast value, p99 a slow one.
  for (int i = 0; i < 95; ++i) h.Record(1'000);
  for (int i = 0; i < 5; ++i) h.Record(10'000'000);
  Histogram::Snapshot s = h.GetSnapshot();
  EXPECT_LT(s.PercentileMillis(0.5), 0.002);
  EXPECT_GT(s.PercentileMillis(0.99), 8.0);
  EXPECT_LT(s.PercentileMillis(0.99), 17.0);
  // Monotone in q across the gap.
  double prev = 0;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = s.PercentileMillis(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(HistogramTest, PercentileMillisEdgeCases) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.GetSnapshot().PercentileMillis(0.99), 0.0);  // empty
  h.Record(1'000);
  Histogram::Snapshot one = h.GetSnapshot();
  // A single sample: every quantile reports the same bucket value.
  EXPECT_DOUBLE_EQ(one.PercentileMillis(0.0), one.PercentileMillis(1.0));
  // Overflow bucket interpolates toward 2x the last finite bound.
  Histogram over;
  over.Record(UINT64_MAX);
  const double top = over.GetSnapshot().PercentileMillis(1.0);
  EXPECT_GT(top, static_cast<double>(Histogram::UpperBound(
                     Histogram::kBuckets - 2)) /
                     1e6);
  EXPECT_LE(top, 2.0 * static_cast<double>(Histogram::UpperBound(
                           Histogram::kBuckets - 2)) /
                     1e6);
}

TEST(HistogramTest, DeltaSinceSubtractsAndClampsAtZero) {
  Histogram h;
  h.Record(1'000);
  Histogram::Snapshot before = h.GetSnapshot();
  h.Record(1'000);
  h.Record(4'000'000);
  Histogram::Snapshot after = h.GetSnapshot();
  Histogram::Snapshot delta = after.DeltaSince(before);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum_nanos, 4'001'000u);
  // A Reset between snapshots degrades to an empty delta, never wraps.
  h.Reset();
  Histogram::Snapshot wrapped = h.GetSnapshot().DeltaSince(after);
  EXPECT_EQ(wrapped.count, 0u);
  EXPECT_EQ(wrapped.sum_nanos, 0u);
  for (size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(wrapped.counts[b], 0u);
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateReturnsStableInstruments) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x.hits");
  Counter& b = reg.GetCounter("x.hits");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  EXPECT_EQ(reg.GetCounter("x.hits").Value(), 5u);
  // Distinct kinds live in distinct namespaces.
  reg.GetGauge("x.hits").Set(-1);
  EXPECT_EQ(reg.GetCounter("x.hits").Value(), 5u);
}

TEST(MetricsRegistryTest, SnapshotAndReset) {
  MetricsRegistry reg;
  reg.GetCounter("a.count").Add(3);
  reg.GetGauge("b.depth").Set(-7);
  reg.GetHistogram("c.latency_ns").Record(1000);
  MetricsRegistry::Snapshot snap = reg.GetSnapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 3u);
  EXPECT_EQ(snap.gauges.at("b.depth"), -7);
  EXPECT_EQ(snap.histograms.at("c.latency_ns").count, 1u);
  reg.Reset();
  snap = reg.GetSnapshot();
  // Names stay registered, values zero.
  EXPECT_EQ(snap.counters.at("a.count"), 0u);
  EXPECT_EQ(snap.gauges.at("b.depth"), 0);
  EXPECT_EQ(snap.histograms.at("c.latency_ns").count, 0u);
}

TEST(MetricsRegistryTest, SnapshotJsonShape) {
  MetricsRegistry reg;
  reg.GetCounter("q.count").Add(2);
  reg.GetGauge("q.depth").Set(4);
  reg.GetHistogram("q.lat_ns").Record(500);
  std::string json = reg.SnapshotJson().Dump();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"q.count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"q.depth\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sum_ns\":500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean_ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos) << json;
  // Raw bucket counts ride along so external tools can diff dumps.
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos) << json;
}

TEST(MetricsRegistryTest, GlobalIsProcessWideAndPrepopulated) {
  // The subsystems register their instruments on first use; the global
  // registry must hand back the same counter for the same name.
  Counter& c = Metrics().GetCounter("obs_test.global.probe");
  c.Add(1);
  EXPECT_GE(Metrics().GetCounter("obs_test.global.probe").Value(), 1u);
}

// ---------------------------------------------------------------------------
// Trace / Span
// ---------------------------------------------------------------------------

TEST(TraceTest, SpansNestAndRecordDurations) {
  Trace trace("query");
  {
    Span root = trace.RootSpan();
    ASSERT_TRUE(root.enabled());
    {
      Span rewrite(&root, "rewrite");
      rewrite.Annotate("xpath_queries", uint64_t{3});
    }
    Span eval(&root, "eval");
    Span inner(&eval, "decode");
    inner.End();
    eval.Annotate("docs", uint64_t{2});
  }
  const TraceNode& root = trace.root();
  EXPECT_EQ(root.name, "query");
  EXPECT_GT(root.duration_nanos, 0u);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->name, "rewrite");
  EXPECT_EQ(root.children[1]->name, "eval");
  EXPECT_GT(root.children[0]->duration_nanos, 0u);
  ASSERT_EQ(root.children[0]->annotations.size(), 1u);
  EXPECT_EQ(root.children[0]->annotations[0].first, "xpath_queries");
  EXPECT_EQ(root.children[0]->annotations[0].second, "3");
  ASSERT_EQ(root.children[1]->children.size(), 1u);
  EXPECT_EQ(root.children[1]->children[0]->name, "decode");
}

TEST(TraceTest, DisabledSpansAreInertAndContagious) {
  Span none;  // default-constructed = disabled
  EXPECT_FALSE(none.enabled());
  Span child(&none, "phase");
  EXPECT_FALSE(child.enabled());
  Span grandchild(&child, "inner");
  EXPECT_FALSE(grandchild.enabled());
  // All no-ops; nothing to crash on.
  child.Annotate("k", "v");
  child.Annotate("n", uint64_t{1});
  child.End();
  Span via_null(nullptr, "phase");
  EXPECT_FALSE(via_null.enabled());
}

TEST(TraceTest, EndIsIdempotentAndMoveSafe) {
  Trace trace("t");
  Span root = trace.RootSpan();
  Span a(&root, "a");
  a.End();
  uint64_t first = trace.root().children[0]->duration_nanos;
  EXPECT_GT(first, 0u);
  a.End();  // keeps the first stop
  EXPECT_EQ(trace.root().children[0]->duration_nanos, first);
  Span b(&root, "b");
  Span moved = std::move(b);
  EXPECT_TRUE(moved.enabled());
  EXPECT_FALSE(b.enabled());  // NOLINT(bugprone-use-after-move): testing it
  moved.End();
  root.End();
}

TEST(TraceTest, CoverageFractionReflectsChildTime) {
  Trace trace("q");
  {
    Span root = trace.RootSpan();
    // One child doing essentially all the root's work.
    Span phase(&root, "phase");
    Timer t;
    while (t.ElapsedNanos() < 2'000'000) {
    }
    phase.End();
  }
  double cov = trace.CoverageFraction();
  EXPECT_GT(cov, 0.5);
  EXPECT_LE(cov, 1.0);

  Trace empty("e");
  { Span root = empty.RootSpan(); }
  // No children: nothing covered.
  EXPECT_DOUBLE_EQ(empty.CoverageFraction(), 0.0);
}

TEST(TraceTest, JsonAndPrettyRenderTheTree) {
  Trace trace("select(dblp)");
  {
    Span root = trace.RootSpan();
    Span child(&root, "store_scan");
    child.Annotate("candidate_docs", uint64_t{4});
    child.Annotate("note", "a \"quoted\" value");
  }
  std::string json = trace.Json().Dump();
  EXPECT_NE(json.find("\"name\":\"select(dblp)\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"store_scan\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"candidate_docs\":\"4\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"children\":["), std::string::npos) << json;

  std::string pretty = trace.Pretty();
  EXPECT_NE(pretty.find("select(dblp)"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("store_scan"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("candidate_docs=4"), std::string::npos) << pretty;
  EXPECT_NE(pretty.find("ms"), std::string::npos) << pretty;
}

TEST(TraceTest, SpansAssembledAcrossPoolThreadsStayWellFormed) {
  WorkerPool pool(4);
  Trace trace("parallel");
  {
    Span root = trace.RootSpan();
    Status st = pool.ParallelFor(64, [&](size_t i) {
      Span task(&root, "task");
      task.Annotate("i", static_cast<uint64_t>(i));
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
  }
  const TraceNode& root = trace.root();
  ASSERT_EQ(root.children.size(), 64u);
  std::set<std::string> seen;
  for (const auto& c : root.children) {
    EXPECT_EQ(c->name, "task");
    EXPECT_GT(c->duration_nanos, 0u);
    ASSERT_EQ(c->annotations.size(), 1u);
    seen.insert(c->annotations[0].second);
  }
  EXPECT_EQ(seen.size(), 64u);  // every task's node survived intact
}

}  // namespace
}  // namespace toss::obs
