// Shared setup for the figure-reproduction benches: world generation,
// store loading, ontology construction, SEO building, and the Fig. 15
// per-query evaluation loop.

#ifndef TOSS_BENCH_BENCH_UTIL_H_
#define TOSS_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "core/toss.h"
#include "data/bib_generator.h"
#include "data/workload.h"
#include "eval/metrics.h"

namespace toss::bench {

/// Dies with a message when a Status is not OK (benches have no callers to
/// propagate to).
void CheckOk(const Status& status, const char* what);

/// True when the TOSS_BENCH_SMOKE environment variable is set and not "0":
/// benches shrink to their smallest configuration so the `bench_smoke`
/// ctest label exercises every harness end-to-end in seconds. Smoke runs
/// gate correctness, not numbers, so JSON reporting is disabled.
bool SmokeMode();

/// Merges {`name`: `median_ms`} into the machine-readable bench report --
/// a flat JSON object of bench name -> median wall milliseconds, written
/// at the repo root under the name TOSS_BENCH_REPORT sets in
/// bench/CMakeLists.txt (override the path with the TOSS_BENCH_JSON
/// environment variable). Re-recording a name overwrites
/// its value; entries from other benches are preserved. At process exit
/// the final obs::Metrics() snapshot is merged in too, as flat
/// "metrics/<name>" keys (histograms flatten to count/mean_ms/p99_ms).
/// No-op in smoke mode.
void RecordBenchMs(const std::string& name, double median_ms);

/// Times `body` with adaptive repetitions: one run if it takes >= 50 ms
/// (single-shot medians of long runs are stable enough), otherwise `body`
/// repeats until ~1 s of measured time has accumulated or 31 samples,
/// whichever comes first, and the median of all samples is reported. This
/// keeps sub-50 ms points (which a faster engine makes the common case)
/// from being dominated by scheduler noise. Records the median under
/// `name` via RecordBenchMs plus the sample count as "meta/reps/<name>",
/// and returns the median. Smoke mode runs `body` exactly once and
/// records nothing.
double MeasureAdaptiveMs(const std::string& name,
                         const std::function<void()>& body);

/// Median of a small sample (by copy; benches pass 3-5 runs).
double Median(std::vector<double> xs);

template <typename T>
T CheckResult(Result<T> r, const char* what) {
  CheckOk(r.status(), what);
  return std::move(r).value();
}

/// Builds the single fused ontology of a loaded collection.
ontology::Ontology CollectionOntology(const store::Database& db,
                                      const std::string& collection,
                                      std::vector<std::string> content_tags);

/// Builds an SEO over the given instance ontologies.
core::Seo BuildSeo(std::vector<ontology::Ontology> ontologies,
                   const std::string& measure, double epsilon);

/// Outcome of one Fig. 15 query under one system.
struct QueryOutcome {
  std::string query;
  eval::PrMetrics tax;
  eval::PrMetrics toss2;  ///< epsilon = 2
  eval::PrMetrics toss3;  ///< epsilon = 3
};

/// The paper's Section 6 "recall and precision" experiment: `datasets`
/// collections of `papers_per_dataset` papers, `queries_per_dataset`
/// selection queries each (1 isa + 1 similarTo + 3 tag conditions),
/// evaluated under TAX, TOSS(eps=2) and TOSS(eps=3) against ground truth.
std::vector<QueryOutcome> RunFig15Workload(size_t datasets,
                                           size_t papers_per_dataset,
                                           size_t queries_per_dataset,
                                           uint64_t seed);

/// Reusable Fig. 15 setup: datasets, per-dataset ontologies, and queries
/// built once; Evaluate() then sweeps (measure, epsilon) configurations
/// for the measure/epsilon ablation benches.
class Fig15Fixture {
 public:
  Fig15Fixture(size_t datasets, size_t papers_per_dataset,
               size_t queries_per_dataset, uint64_t seed);
  ~Fig15Fixture();
  Fig15Fixture(const Fig15Fixture&) = delete;
  Fig15Fixture& operator=(const Fig15Fixture&) = delete;

  /// Per-query metrics under TOSS with the given measure and epsilon;
  /// `measure` == "" runs the TAX baseline. Similarity-inconsistent
  /// configurations return Status::Inconsistent.
  Result<std::vector<eval::PrMetrics>> Evaluate(const std::string& measure,
                                                double epsilon) const;

  /// Evaluate() across all of `epsilons` (result i matches epsilons[i]),
  /// but with each dataset's SEO built through core::SeoSweeper: fusion and
  /// the pairwise distance scan run once at max(epsilons) instead of once
  /// per epsilon. Per-epsilon results are identical to Evaluate()'s,
  /// including Inconsistent entries for rejected thresholds.
  std::vector<Result<std::vector<eval::PrMetrics>>> EvaluateSweep(
      const std::string& measure, const std::vector<double>& epsilons) const;

  size_t query_count() const;

  /// Human-readable query intents, in Evaluate()'s result order.
  std::vector<std::string> QueryNames() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Averages of a metric vector.
eval::PrMetrics Average(const std::vector<eval::PrMetrics>& ms);

}  // namespace toss::bench

#endif  // TOSS_BENCH_BENCH_UTIL_H_
