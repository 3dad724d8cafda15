#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>

#include "common/json.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "service/toss_service.h"

namespace toss::bench {

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

bool SmokeMode() {
  const char* v = std::getenv("TOSS_BENCH_SMOKE");
  return v != nullptr && std::string_view(v) != "0";
}

namespace {

/// Every bench links this TU, so this static turns the production telemetry
/// on for every bench run: the background time-series ticker, and -- when
/// TOSS_TELEMETRY_DUMP names a file -- a full TelemetryDump written at exit.
/// The dump honors smoke mode (CI runs smoke benches and uploads the dump
/// as a build artifact).
struct BenchTelemetry {
  BenchTelemetry() {
    obs::Telemetry::Global().StartTicker();
    if (std::getenv("TOSS_TELEMETRY_DUMP") != nullptr) {
      std::atexit([] {
        obs::Telemetry& t = obs::Telemetry::Global();
        t.StopTicker();
        const char* path = std::getenv("TOSS_TELEMETRY_DUMP");
        if (path != nullptr && !t.WriteDump(path)) {
          std::fprintf(stderr, "warning: cannot write telemetry dump %s\n",
                       path);
        }
      });
    }
  }
};
const BenchTelemetry g_bench_telemetry;

}  // namespace

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t mid = xs.size() / 2;
  return xs.size() % 2 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2;
}

namespace {

std::string BenchJsonPath() {
  if (const char* p = std::getenv("TOSS_BENCH_JSON")) return p;
  return TOSS_BENCH_REPORT;
}

/// Read-merge-write of the flat bench report. A report that is not a JSON
/// object is replaced wholesale (the file is ours alone). Values keep three
/// decimals.
void MergeIntoBenchJson(const std::map<std::string, double>& updates) {
  using common::JsonValue;
  const std::string path = BenchJsonPath();
  JsonValue report = JsonValue::Object();
  if (std::ifstream in(path); in) {
    std::stringstream buf;
    buf << in.rdbuf();
    auto parsed = JsonValue::Parse(buf.str());
    if (parsed.ok() && parsed->is_object()) report = std::move(parsed).value();
  }
  for (const auto& [key, value] : updates) {
    report.Set(key, JsonValue::Number(std::round(value * 1000.0) / 1000.0));
  }
  std::ofstream out(path, std::ios::trunc);
  if (!(out << report.Dump() << "\n")) {
    std::fprintf(stderr, "warning: cannot write bench report %s\n",
                 path.c_str());
  }
}

/// atexit hook: embeds the process's final metrics snapshot in the bench
/// report as flat "metrics/<name>" keys (the report is a flat name->number
/// object, so histograms flatten to count/mean_ms/p99_ms sub-keys). Running
/// a bench therefore always leaves the instrument values it exercised next
/// to the timings they explain.
void FlushMetricsSnapshot() {
  obs::MetricsRegistry::Snapshot snap = obs::Metrics().GetSnapshot();
  std::map<std::string, double> flat;
  for (const auto& [name, v] : snap.counters) {
    flat["metrics/" + name] = static_cast<double>(v);
  }
  for (const auto& [name, v] : snap.gauges) {
    flat["metrics/" + name] = static_cast<double>(v);
  }
  for (const auto& [name, h] : snap.histograms) {
    flat["metrics/" + name + "/count"] = static_cast<double>(h.count);
    flat["metrics/" + name + "/mean_ms"] = h.MeanMillis();
    flat["metrics/" + name + "/p99_ms"] = h.QuantileUpperBoundMillis(0.99);
  }
  if (!flat.empty()) MergeIntoBenchJson(flat);
}

}  // namespace

void RecordBenchMs(const std::string& name, double median_ms) {
  if (SmokeMode()) return;
  static const bool flush_registered = [] {
    std::atexit(FlushMetricsSnapshot);
    return true;
  }();
  (void)flush_registered;
  MergeIntoBenchJson({{name, median_ms}});
}

double MeasureAdaptiveMs(const std::string& name,
                         const std::function<void()>& body) {
  constexpr double kNoisyThresholdMs = 50.0;
  constexpr double kTargetTotalMs = 1000.0;
  constexpr size_t kMaxReps = 31;
  std::vector<double> samples;
  double total_ms = 0;
  while (true) {
    Timer timer;
    body();
    const double ms = timer.ElapsedMillis();
    samples.push_back(ms);
    total_ms += ms;
    if (SmokeMode()) break;
    if (samples.size() == 1 && ms >= kNoisyThresholdMs) break;
    if (total_ms >= kTargetTotalMs || samples.size() >= kMaxReps) break;
  }
  const double median = Median(samples);
  RecordBenchMs(name, median);
  RecordBenchMs("meta/reps/" + name, static_cast<double>(samples.size()));
  return median;
}

ontology::Ontology CollectionOntology(const store::Database& db,
                                      const std::string& collection,
                                      std::vector<std::string> content_tags) {
  auto coll = db.GetCollection(collection);
  CheckOk(coll.status(), "GetCollection");
  std::vector<const xml::XmlDocument*> docs;
  for (store::DocId id : (*coll)->AllDocs()) {
    docs.push_back(&(*coll)->document(id));
  }
  ontology::OntologyMakerOptions opts;
  opts.content_tags = std::move(content_tags);
  return CheckResult(
      ontology::MakeOntologyForDocuments(
          docs, lexicon::BuiltinBibliographicLexicon(), opts),
      "MakeOntologyForDocuments");
}

core::Seo BuildSeo(std::vector<ontology::Ontology> ontologies,
                   const std::string& measure, double epsilon) {
  core::SeoBuilder builder;
  for (auto& onto : ontologies) {
    builder.AddInstanceOntology(std::move(onto));
  }
  builder.SetMeasure(CheckResult(sim::MakeMeasure(measure), "MakeMeasure"));
  builder.SetEpsilon(epsilon);
  return CheckResult(builder.Build(), "SeoBuilder::Build");
}

struct Fig15Fixture::Impl {
  struct Dataset {
    std::string name;
    std::unique_ptr<store::Database> db;
    ontology::Ontology onto;
    std::vector<data::SelectionQuery> queries;
  };
  std::vector<Dataset> datasets;
  core::TypeSystem types = core::MakeBibliographicTypeSystem();
};

Fig15Fixture::Fig15Fixture(size_t datasets, size_t papers_per_dataset,
                           size_t queries_per_dataset, uint64_t seed)
    : impl_(std::make_unique<Impl>()) {
  data::BibConfig cfg;
  cfg.seed = seed;
  cfg.num_papers = datasets * papers_per_dataset;
  // A small author pool gives each (person, venue) intent several papers,
  // keeping per-query recall away from the 0/1 extremes.
  cfg.num_people = 10 * datasets;
  data::BibWorld world = data::GenerateWorld(cfg);

  for (size_t d = 0; d < datasets; ++d) {
    size_t first = d * papers_per_dataset;
    Impl::Dataset ds;
    ds.name = "dblp" + std::to_string(d);
    ds.db = std::make_unique<store::Database>();
    CheckOk(data::LoadIntoCollection(
                ds.db.get(), ds.name,
                data::EmitDblp(world, first, papers_per_dataset, cfg)),
            "LoadIntoCollection");
    ds.onto = CollectionOntology(*ds.db, ds.name, data::DblpContentTags());
    ds.queries = CheckResult(
        data::MakeSelectionWorkload(world, first, papers_per_dataset,
                                    queries_per_dataset, seed + 31 * d),
        "MakeSelectionWorkload");
    impl_->datasets.push_back(std::move(ds));
  }
}

Fig15Fixture::~Fig15Fixture() = default;

size_t Fig15Fixture::query_count() const {
  size_t n = 0;
  for (const auto& ds : impl_->datasets) n += ds.queries.size();
  return n;
}

std::vector<std::string> Fig15Fixture::QueryNames() const {
  std::vector<std::string> out;
  for (const auto& ds : impl_->datasets) {
    for (const auto& q : ds.queries) {
      out.push_back(ds.name + "/" + q.name);
    }
  }
  return out;
}

Result<std::vector<eval::PrMetrics>> Fig15Fixture::Evaluate(
    const std::string& measure, double epsilon) const {
  std::vector<eval::PrMetrics> out;
  for (const auto& ds : impl_->datasets) {
    core::Seo seo;
    std::unique_ptr<service::TossService> svc;
    if (measure.empty()) {
      svc = std::make_unique<service::TossService>(ds.db.get(), nullptr,
                                                   nullptr);
    } else {
      core::SeoBuilder builder;
      builder.AddInstanceOntology(ds.onto);
      TOSS_ASSIGN_OR_RETURN(auto m, sim::MakeMeasure(measure));
      builder.SetMeasure(std::move(m));
      builder.SetEpsilon(epsilon);
      TOSS_ASSIGN_OR_RETURN(seo, builder.Build());
      svc = std::make_unique<service::TossService>(ds.db.get(), &seo,
                                                   &impl_->types);
    }
    for (const auto& q : ds.queries) {
      service::QueryResponse r =
          svc->Run(service::QueryRequest::Select(ds.name, q.pattern, q.sl));
      TOSS_RETURN_NOT_OK(r.status);
      out.push_back(
          eval::ComputePr(eval::ExtractRootProvenance(r.trees), q.correct));
    }
  }
  return out;
}

std::vector<Result<std::vector<eval::PrMetrics>>> Fig15Fixture::EvaluateSweep(
    const std::string& measure, const std::vector<double>& epsilons) const {
  std::vector<Result<std::vector<eval::PrMetrics>>> out;
  if (measure.empty()) {
    // TAX baseline: no SEO to share, each epsilon is an independent run.
    for (double e : epsilons) out.push_back(Evaluate(measure, e));
    return out;
  }
  double max_eps = 0;
  for (double e : epsilons) max_eps = std::max(max_eps, e);
  // One sweeper per dataset: fusion + the pairwise distance scan happen
  // here, once, at the sweep's max epsilon.
  std::vector<core::SeoSweeper> sweepers;
  for (const auto& ds : impl_->datasets) {
    core::SeoBuilder builder;
    builder.AddInstanceOntology(ds.onto);
    auto m = sim::MakeMeasure(measure);
    if (!m.ok()) {
      out.assign(epsilons.size(),
                 Result<std::vector<eval::PrMetrics>>(m.status()));
      return out;
    }
    builder.SetMeasure(std::move(m).value());
    auto sweeper = builder.BuildSweeper(max_eps);
    if (!sweeper.ok()) {
      out.assign(epsilons.size(),
                 Result<std::vector<eval::PrMetrics>>(sweeper.status()));
      return out;
    }
    sweepers.push_back(std::move(sweeper).value());
  }
  for (double eps : epsilons) {
    auto run = [&]() -> Result<std::vector<eval::PrMetrics>> {
      std::vector<eval::PrMetrics> res;
      for (size_t d = 0; d < impl_->datasets.size(); ++d) {
        const auto& ds = impl_->datasets[d];
        TOSS_ASSIGN_OR_RETURN(core::Seo seo, sweepers[d].BuildAt(eps));
        service::TossService svc(ds.db.get(), &seo, &impl_->types);
        for (const auto& q : ds.queries) {
          service::QueryResponse r = svc.Run(
              service::QueryRequest::Select(ds.name, q.pattern, q.sl));
          TOSS_RETURN_NOT_OK(r.status);
          res.push_back(eval::ComputePr(eval::ExtractRootProvenance(r.trees),
                                        q.correct));
        }
      }
      return res;
    };
    out.push_back(run());
  }
  return out;
}

eval::PrMetrics Average(const std::vector<eval::PrMetrics>& ms) {
  eval::PrMetrics avg;
  avg.precision = avg.recall = avg.quality = 0;
  if (ms.empty()) return avg;
  for (const auto& m : ms) {
    avg.precision += m.precision;
    avg.recall += m.recall;
    avg.quality += m.quality;
    avg.returned += m.returned;
    avg.correct += m.correct;
    avg.hits += m.hits;
  }
  double n = static_cast<double>(ms.size());
  avg.precision /= n;
  avg.recall /= n;
  avg.quality /= n;
  return avg;
}

std::vector<QueryOutcome> RunFig15Workload(size_t datasets,
                                           size_t papers_per_dataset,
                                           size_t queries_per_dataset,
                                           uint64_t seed) {
  Fig15Fixture fixture(datasets, papers_per_dataset, queries_per_dataset,
                       seed);
  auto tax = CheckResult(fixture.Evaluate("", 0), "tax");
  auto e2 = CheckResult(fixture.Evaluate("guarded-levenshtein", 2.0), "e2");
  auto e3 = CheckResult(fixture.Evaluate("guarded-levenshtein", 3.0), "e3");
  auto names = fixture.QueryNames();
  std::vector<QueryOutcome> outcomes(tax.size());
  for (size_t i = 0; i < tax.size(); ++i) {
    outcomes[i].query = names[i];
    outcomes[i].tax = tax[i];
    outcomes[i].toss2 = e2[i];
    outcomes[i].toss3 = e3[i];
  }
  return outcomes;
}

}  // namespace toss::bench
