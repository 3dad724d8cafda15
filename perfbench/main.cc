// toss_perfbench: the repository benchmark. One workload per process:
//
//   toss_perfbench --workload select_point --seed 1 --seconds 10 --trace 0
//
// Set-up (repeated, median reported) stands up a tossd-like server over a
// generated world; then two keep-alive connections drive it in a closed
// loop with zero think time, each through a fixed, seeded request
// sequence, timing every request from send to last response byte. Every
// answer is checked against an in-process golden, and after the run the
// durable database is re-opened and every written key checked.
//
// --trace 0 prints the end-to-end metrics. --trace 1 serves the first half
// of the sequence as usual and the second half through a handler that
// times the calls into each layer (wire decode, TossService::Run, wire
// encode), plus client-side timings of the HTTP request parser and the XML
// parser on the same bytes, and prints the per-layer metrics, the tracing
// overhead, and the share of request time the named layers cover.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero when any check failed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "http_client.h"
#include "net/http.h"
#include "net/toss_handler.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "service/wire.h"
#include "workload.h"
#include "xml/xml_parser.h"

using namespace toss;
using namespace perfbench;

namespace {

constexpr size_t kConnections = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

// --- Traced serving --------------------------------------------------------

/// What the traced handler measured for one request.
struct LayerRecord {
  bool filled = false;
  bool mutation = false;
  int64_t decode_ns = 0;
  int64_t run_ns = 0;
  int64_t encode_ns = 0;
  double queue_wait_ms = 0;
  core::ExecStats stats;
  size_t body_bytes = 0;
};

/// What the client measured for one request.
struct ClientRecord {
  bool ok = false;
  double roundtrip_ms = 0;
  int64_t http_parse_ns = 0;
  int64_t xml_parse_ns = 0;
  size_t user_bytes = 0;  ///< written document bytes
};

/// Records of the traced phase, indexed by slot - 1. Each slot is written
/// by exactly one server worker and one client thread, and read only after
/// both are joined.
struct TraceLog {
  std::vector<LayerRecord> layers;
  std::vector<ClientRecord> client;
};

/// The route the production handler (net::MakeTossHandler) takes for
/// /v1/query and /v1/mutate, with a timer around each layer call. Requests
/// without an X-Bench-Slot header, and every error path, go to the
/// production handler itself.
net::Handler TracedHandler(service::TossService* svc, TraceLog* log) {
  net::Handler production = net::MakeTossHandler(svc);
  return [svc, log, production](const net::HttpRequest& http) {
    const bool mutation = http.target == "/v1/mutate";
    const std::string* slot_header = http.FindHeader("x-bench-slot");
    if (slot_header == nullptr || http.method != "POST" ||
        (!mutation && http.target != "/v1/query")) {
      return production(http);
    }
    LayerRecord rec;
    rec.mutation = mutation;
    Timer timer;
    auto request = service::wire::ParseRequestText(http.body);
    rec.decode_ns = timer.ElapsedNanos();
    if (!request.ok() || request->IsMutation() != mutation) {
      return production(http);
    }
    timer.Reset();
    service::QueryResponse resp = svc->Run(*request);
    rec.run_ns = timer.ElapsedNanos();
    net::HttpResponse out;
    out.status = net::HttpStatusFor(resp.status.code());
    timer.Reset();
    out.body = service::wire::ResponseJson(resp);
    rec.encode_ns = timer.ElapsedNanos();
    rec.queue_wait_ms = resp.queue_wait_ms;
    rec.stats = resp.stats;
    rec.body_bytes = out.body.size();
    rec.filled = true;
    const uint64_t slot = std::strtoull(slot_header->c_str(), nullptr, 10);
    if (slot >= 1 && slot <= log->layers.size()) log->layers[slot - 1] = rec;
    return out;
  };
}

// --- Load phases -----------------------------------------------------------

struct PhaseResult {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  size_t attempted = 0;
  size_t failed = 0;
  double quality_sum = 0;  ///< sqrt(P*R) summed over reads (failed: 0)
  double wall_s = 0;
  std::vector<std::string> errors;  ///< the first few failures

  void Merge(PhaseResult&& o) {
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    quality_sum += o.quality_sum;
    for (auto& e : o.errors) {
      if (errors.size() < 5) errors.push_back(std::move(e));
    }
  }
};

/// Serves `schedule` (one connection per sequence) against the fixture's
/// server. `acked[i]` receives the last acknowledged revision of document
/// i. With `trace`, requests carry slots from `slot_base + 1` on and the
/// client-side layer timings are recorded.
PhaseResult RunPhase(Fixture& fx, const std::vector<std::vector<Op>>& schedule,
                     std::vector<uint32_t>* acked, TraceLog* trace,
                     size_t slot_base) {
  const bool check_bytes = fx.spec().kind != Kind::kIngestMixed;
  std::vector<PhaseResult> results(schedule.size());
  std::latch ready(static_cast<std::ptrdiff_t>(schedule.size()) + 1);
  std::vector<std::thread> threads;
  size_t offset = slot_base;
  for (size_t c = 0; c < schedule.size(); ++c) {
    threads.emplace_back([&, c, offset] {
      PhaseResult& r = results[c];
      HttpClient client;
      const bool connected = client.Connect(fx.port());
      ready.arrive_and_wait();
      if (!connected) {
        r.attempted = r.failed = schedule[c].size();
        r.errors.push_back("cannot connect");
        return;
      }
      std::set<uint64_t> roots;
      for (size_t i = 0; i < schedule[c].size(); ++i) {
        const Op& op = schedule[c][i];
        const uint64_t slot = trace != nullptr ? offset + i + 1 : 0;
        std::string xml;
        std::string bytes;
        if (op.write) {
          xml = fx.docs()[op.index].Render(op.revision);
          bytes = HttpPost("/v1/mutate",
                           service::wire::RequestJson(
                               service::QueryRequest::Replace(
                                   fx.write_collection(),
                                   fx.docs()[op.index].key, xml)),
                           slot);
        } else if (slot != 0) {
          bytes = HttpPost("/v1/query", fx.reads()[op.index].body, slot);
        }
        const std::string& wire = bytes.empty() ? fx.reads()[op.index].http
                                                : bytes;
        Timer timer;
        const bool sent = client.Send(wire);
        const int status = sent ? client.ReadResponse() : -1;
        const double ms = timer.ElapsedMillis();
        ++r.attempted;
        if (status < 0) {
          // The connection is gone: everything left on it fails.
          r.failed += schedule[c].size() - i;
          r.attempted += schedule[c].size() - i - 1;
          r.errors.push_back("connection lost");
          return;
        }
        const std::string_view body = client.body();
        bool ok = status == 200 &&
                  body.find("\"status\":{\"code\":\"OK\"") != body.npos;
        if (op.write) {
          r.write_ms.push_back(ms);
          if (ok) (*acked)[op.index] = op.revision;
        } else {
          const ReadQuery& q = fx.reads()[op.index];
          r.read_ms.push_back(ms);
          if (ok && check_bytes) {
            ok = TreesOf(body) == q.golden_trees;
          } else if (ok) {
            roots.clear();
            ok = RootProvenance(TreesOf(body), &roots) &&
                 roots == q.golden_roots;
          }
          if (ok) r.quality_sum += q.quality;
        }
        if (!ok) {
          ++r.failed;
          if (r.errors.size() < 5) {
            r.errors.push_back(
                (op.write ? "write " + fx.docs()[op.index].key
                          : "read " + fx.reads()[op.index].label) +
                ": HTTP " + std::to_string(status) + " " +
                std::string(body.substr(0, 200)));
          }
        }
        if (trace != nullptr) {
          // Client-side layer timings, outside the roundtrip window.
          ClientRecord& cr = trace->client[slot - 1];
          cr.ok = ok;
          cr.roundtrip_ms = ms;
          Timer parse;
          net::RequestParser parser;
          parser.Feed(wire);
          net::HttpRequest parsed;
          if (parser.Next(&parsed) != net::RequestParser::Result::kReady) {
            cr.ok = false;
          }
          cr.http_parse_ns = parse.ElapsedNanos();
          if (op.write) {
            parse.Reset();
            cr.ok = cr.ok && xml::Parse(xml).ok();
            cr.xml_parse_ns = parse.ElapsedNanos();
            cr.user_bytes = xml.size();
          }
        }
      }
    });
    offset += schedule[c].size();
  }
  Timer wall;
  ready.arrive_and_wait();
  wall.Reset();
  for (auto& t : threads) t.join();
  PhaseResult out;
  out.wall_s = wall.ElapsedMillis() / 1e3;
  for (auto& r : results) out.Merge(std::move(r));
  return out;
}

size_t ScheduleSize(const std::vector<std::vector<Op>>& schedule) {
  size_t n = 0;
  for (const auto& s : schedule) n += s.size();
  return n;
}

// --- Statistics ------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it (p99 of 1000 samples leaves 10 above it).
double Percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(xs.size()) - 1e-9));
  return xs[std::clamp<size_t>(rank, 1, xs.size()) - 1];
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Registry counter/histogram deltas between two snapshots.
struct Delta {
  obs::MetricsRegistry::Snapshot before, after;
  double Counter(const std::string& name) const {
    auto get = [&](const obs::MetricsRegistry::Snapshot& s) {
      auto it = s.counters.find(name);
      return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    return get(after) - get(before);
  }
  double HistogramMeanMs(const std::string& name) const {
    auto get = [&](const obs::MetricsRegistry::Snapshot& s)
        -> std::pair<double, double> {
      auto it = s.histograms.find(name);
      if (it == s.histograms.end()) return {0, 0};
      return {static_cast<double>(it->second.count),
              static_cast<double>(it->second.sum_nanos)};
    };
    const auto [c0, s0] = get(before);
    const auto [c1, s1] = get(after);
    return Ratio(s1 - s0, c1 - c0) / 1e6;
  }
};

// --- Report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count or provenance, printed in the text
  /// In the JSON result line. Tail percentiles are printed only: across
  /// ten seeds their spread exceeded 0.25, the largest regression bound
  /// BENCHMARK.json accepts (see README.md).
  bool in_json = true;
};

void PrintReport(const std::vector<Metric>& metrics, size_t attempted,
                 size_t failed, const std::vector<std::string>& errors) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  %-28s %14.6f %-6s (%zu failed of %zu attempted)\n",
              "error_rate", Ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted)),
              "1", failed, attempted);
  for (const std::string& e : errors) std::printf("  FAILED: %s\n", e.c_str());
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  const char* separator = "\"";
  for (const Metric& m : metrics) {
    if (!m.in_json) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", m.value);
    json += separator + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    separator = ", \"";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Samples(size_t n) { return "(n=" + std::to_string(n) + ")"; }

/// One line per request class: its in-process golden Run cost and answer
/// size, so a mix whose median falls between two cost modes is visible.
void PrintClasses(const std::vector<ReadQuery>& reads) {
  std::map<std::string, std::vector<const ReadQuery*>> classes;
  for (const ReadQuery& q : reads) classes[q.label].push_back(&q);
  for (const auto& [label, qs] : classes) {
    std::vector<double> ms, trees, kb;
    for (const ReadQuery* q : qs) {
      ms.push_back(q->run_ms);
      trees.push_back(static_cast<double>(q->golden_count));
      kb.push_back(static_cast<double>(q->golden_trees.size()) / 1024.0);
    }
    std::printf("  class %-22s %4zu distinct  in-process Run p50 %.3f ms "
                "(min %.3f, max %.3f)  answer p50 %.0f trees, %.1f KiB\n",
                label.c_str(), qs.size(), Median(ms),
                *std::min_element(ms.begin(), ms.end()),
                *std::max_element(ms.begin(), ms.end()), Median(trees),
                Median(kb));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Spec spec;
  if (!ParseArgs(argc, argv, &args) ||
      !LookupSpec(args.workload, args.smoke, &spec)) {
    std::fprintf(stderr,
                 "usage: toss_perfbench --workload "
                 "select_point|select_scan|join_title|ingest_mixed "
                 "[--seed N] [--seconds S] [--trace 0|1] [--smoke]\n");
    return 2;
  }
  std::printf("workload %s  seed %llu  %s  (closed loop, %zu keep-alive "
              "connections, zero think time)\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced", kConnections);
  obs::Telemetry::Global().StartTicker();
  auto fail = [](const Status& status, const char* what) {
    std::fprintf(stderr, "toss_perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    obs::Telemetry::Global().StopTicker();
    return 1;
  };

  // --- Set-up, repeated; the last fixture serves the run. ----------------
  std::unique_ptr<Fixture> fx;
  std::vector<SetupTimes> setups;
  for (size_t i = 0; i < spec.setup_repeats; ++i) {
    fx.reset();
    auto built = Fixture::Build(spec, args.seed);
    if (!built.ok()) return fail(built.status(), "set-up");
    fx = std::move(built).value();
    setups.push_back(fx->times());
  }
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> xs;
    for (const auto& s : setups) xs.push_back(s.*field);
    return Median(xs);
  };
  if (Status s = fx->MakeGoldens(); !s.ok()) return fail(s, "goldens");
  std::printf(
      "  set-up medians: generate %.3f s, load %.3f s, ontology %.3f s, "
      "SEO %.3f s, durable open %.3f s, server start %.3f s, warm-up %.3f s\n",
      setup_median(&SetupTimes::generate_s), setup_median(&SetupTimes::load_s),
      setup_median(&SetupTimes::ontology_s),
      setup_median(&SetupTimes::seo_build_s),
      setup_median(&SetupTimes::durable_open_s),
      setup_median(&SetupTimes::start_s), setup_median(&SetupTimes::warmup_s));
  PrintClasses(fx->reads());

  // --- The request schedule: a fixed count per (workload, seconds). ------
  size_t total = static_cast<size_t>(
      std::llround(args.seconds * spec.requests_per_second));
  total = std::max(total, spec.min_reads);
  if (spec.write_every != 0) {
    total = std::max(total, spec.min_writes * spec.write_every);
    total = std::max(total, spec.min_reads * spec.write_every /
                                (spec.write_every - 1));
  }
  total = std::max<size_t>(total, kConnections);
  std::vector<uint32_t> revisions(fx->docs().size(), 0);
  std::vector<uint32_t> acked(fx->docs().size(), 0);
  const auto schedule = MakeSchedule(total, kConnections, spec.write_every,
                                     fx->reads().size(), &revisions, args.seed);
  const size_t probe_writes = static_cast<size_t>(
      std::llround(args.seconds * spec.probe_writes_per_second));
  const auto probe = MakeSchedule(probe_writes, 1, 1, fx->reads().size(),
                                  &revisions, args.seed + 1);

  std::vector<Metric> metrics;
  PhaseResult all;
  if (!args.trace) {
    PhaseResult timed = RunPhase(*fx, schedule, &acked, nullptr, 0);
    PhaseResult probed = RunPhase(*fx, probe, &acked, nullptr, 0);
    const auto& writes = spec.write_every != 0 ? timed.write_ms : probed.write_ms;
    const size_t reads = timed.read_ms.size();
    const std::string write_note =
        Samples(writes.size()) +
        (spec.write_every != 0 ? " under the mixed load"
                               : " sequential probe after the timed phase");
    metrics = {
        {"setup_s", setup_median(&SetupTimes::total_s), "s",
         "(median of " + std::to_string(setups.size()) + " set-ups)"},
        {"read_p50_ms", Median(timed.read_ms), "ms", Samples(reads)},
        {"read_p99_ms", Percentile(timed.read_ms, 0.99), "ms",
         Samples(reads) + " printed only", false},
        {"write_p50_ms", Median(writes), "ms", write_note},
        {"write_p99_ms", Percentile(writes, 0.99), "ms",
         write_note + ", printed only", false},
        {"throughput_rps",
         Ratio(static_cast<double>(timed.attempted - timed.failed),
               timed.wall_s),
         "1/s",
         "(" + std::to_string(timed.attempted) + " requests in " +
             std::to_string(timed.wall_s) + " s)"},
        {"answer_quality", Ratio(timed.quality_sum, static_cast<double>(reads)),
         "1", "(mean sqrt(P*R) over " + std::to_string(reads) + " reads)"},
    };
    all.Merge(std::move(timed));
    all.Merge(std::move(probed));
  } else {
    // First half of every sequence untraced, second half traced.
    std::vector<std::vector<Op>> first, second;
    for (const auto& seq : schedule) {
      const auto mid = seq.begin() + static_cast<std::ptrdiff_t>(seq.size() / 2);
      first.emplace_back(seq.begin(), mid);
      second.emplace_back(mid, seq.end());
    }
    PhaseResult untraced = RunPhase(*fx, first, &acked, nullptr, 0);

    const size_t traced_n = ScheduleSize(second);
    TraceLog log;
    log.layers.resize(traced_n + ScheduleSize(probe));
    log.client.resize(log.layers.size());
    if (Status s = fx->Restart(TracedHandler(fx->service(), &log)); !s.ok()) {
      return fail(s, "traced server start");
    }
    Delta delta;
    delta.before = obs::Metrics().GetSnapshot();
    const auto prepared0 = fx->service()->PreparedCacheStats();
    PhaseResult traced = RunPhase(*fx, second, &acked, &log, 0);
    PhaseResult probed = RunPhase(*fx, probe, &acked, &log, traced_n);
    delta.after = obs::Metrics().GetSnapshot();
    const auto prepared1 = fx->service()->PreparedCacheStats();
    fx->Shutdown();  // joins the server workers that wrote log.layers

    double transport = 0, parse_ns = 0, decode_ns = 0, encode_ns = 0,
           run_ns = 0, mutation_ns = 0, xml_ns = 0, wait = 0, kb = 0,
           rewrite = 0, store = 0, eval = 0, expanded = 0, candidates = 0,
           trees = 0, covered = 0, roundtrips = 0, user_bytes = 0;
    size_t reads = 0, writes = 0, all_n = 0;
    for (size_t i = 0; i < log.layers.size(); ++i) {
      const LayerRecord& l = log.layers[i];
      const ClientRecord& c = log.client[i];
      if (!l.filled || !c.ok) continue;
      ++all_n;
      const double server_ns = static_cast<double>(
          c.http_parse_ns + l.decode_ns + l.run_ns + l.encode_ns);
      covered += server_ns / 1e6;
      roundtrips += c.roundtrip_ms;
      parse_ns += static_cast<double>(c.http_parse_ns);
      decode_ns += static_cast<double>(l.decode_ns);
      wait += l.queue_wait_ms;
      if (l.mutation) {
        ++writes;
        mutation_ns += static_cast<double>(l.run_ns);
        xml_ns += static_cast<double>(c.xml_parse_ns);
        user_bytes += static_cast<double>(c.user_bytes);
        continue;
      }
      ++reads;
      transport += c.roundtrip_ms - server_ns / 1e6;
      run_ns += static_cast<double>(l.run_ns);
      encode_ns += static_cast<double>(l.encode_ns);
      kb += static_cast<double>(l.body_bytes) / 1024.0;
      rewrite += l.stats.rewrite_ms;
      store += l.stats.store_ms;
      eval += l.stats.eval_ms;
      expanded += static_cast<double>(l.stats.expanded_terms);
      candidates += static_cast<double>(l.stats.candidate_docs);
      trees += static_cast<double>(l.stats.result_trees);
    }
    const double nr = static_cast<double>(reads);
    const double nw = static_cast<double>(writes);
    const double na = static_cast<double>(all_n);
    const std::string rn = Samples(reads), wn = Samples(writes),
                      an = Samples(all_n);
    const std::string setup_note =
        "(median of " + std::to_string(setups.size()) + " set-ups)";
    const SetupTimes& last = setups.back();
    const double tree_hits = delta.Counter("store.tree_cache.hits");
    const double tree_misses = delta.Counter("store.tree_cache.misses");
    const double twig_pairs =
        delta.Counter("core.query.join.twig.pairs_scanned");
    metrics = {
        {"net.transport_ms", Ratio(transport, nr), "ms", rn},
        {"net.http_parse_us", Ratio(parse_ns, na) / 1e3, "us", an},
        {"net.response_kb", Ratio(kb, nr), "KiB", rn},
        {"service.wire_decode_us", Ratio(decode_ns, na) / 1e3, "us", an},
        {"service.wire_encode_ms", Ratio(encode_ns, nr) / 1e6, "ms", rn},
        {"service.run_ms", Ratio(run_ns, nr) / 1e6, "ms", rn},
        {"service.queue_wait_ms", Ratio(wait, na), "ms", an},
        {"service.mutation_ms", Ratio(mutation_ns, nw) / 1e6, "ms", wn},
        {"core.rewrite_ms", Ratio(rewrite, nr), "ms", rn},
        {"core.prepared_hit_ratio",
         Ratio(static_cast<double>(prepared1.hits - prepared0.hits),
               static_cast<double>(prepared1.hits - prepared0.hits +
                                   prepared1.misses - prepared0.misses)),
         "1", rn},
        {"core.expanded_terms", Ratio(expanded, nr), "count", rn},
        {"core.seo_build_s", setup_median(&SetupTimes::seo_build_s), "s",
         setup_note},
        {"ontology.make_s", setup_median(&SetupTimes::ontology_s), "s",
         setup_note},
        {"sim.filter_ratio",
         Ratio(static_cast<double>(last.pairs_filtered),
               static_cast<double>(last.pairs_filtered + last.pairs_computed)),
         "1",
         "(" + std::to_string(last.pairs_filtered + last.pairs_computed) +
             " pairs)"},
        {"store.scan_ms", Ratio(store, nr), "ms", rn},
        {"store.candidate_docs", Ratio(candidates, nr), "count", rn},
        {"store.docs_scanned", Ratio(delta.Counter("store.query.docs_scanned"), nr),
         "count", rn},
        {"store.tree_cache_hit_ratio",
         Ratio(tree_hits, tree_hits + tree_misses), "1", rn},
        {"store.wal_commit_ms",
         delta.HistogramMeanMs("store.wal.commit_latency_ns"), "ms", wn},
        {"store.fsyncs_per_write",
         Ratio(delta.Counter("store.wal.fsyncs"), nw), "count", wn},
        {"store.wal_records_per_batch",
         Ratio(delta.Counter("store.wal.records"),
               delta.Counter("store.wal.batches")),
         "count", wn},
        {"store.bytes_per_user_byte",
         Ratio(delta.Counter("store.wal.bytes_appended"), user_bytes), "1",
         wn},
        {"store.load_s", setup_median(&SetupTimes::load_s), "s", setup_note},
        {"store.durable_open_s", setup_median(&SetupTimes::durable_open_s), "s",
         setup_note},
        {"tax.eval_ms", Ratio(eval, nr), "ms", rn},
        {"tax.result_trees", Ratio(trees, nr), "count", rn},
        {"tax.twig_pairs_scanned", Ratio(twig_pairs, nr), "count", rn},
        {"tax.twig_yield",
         Ratio(delta.Counter("core.query.join.twig.combos_emitted"),
               twig_pairs),
         "1", rn},
        {"xml.parse_us", Ratio(xml_ns, nw) / 1e3, "us", wn},
        {"data.generate_s", setup_median(&SetupTimes::generate_s), "s",
         setup_note},
        {"trace.overhead_ms",
         Median(traced.read_ms) - Median(untraced.read_ms), "ms",
         "(traced minus untraced read p50, " +
             std::to_string(untraced.read_ms.size()) + " untraced reads)"},
        {"trace.coverage", Ratio(covered, roundtrips), "1",
         "(share of roundtrip time in the named layers, " +
             std::to_string(all_n) + " requests)"},
    };
    all.Merge(std::move(untraced));
    all.Merge(std::move(traced));
    all.Merge(std::move(probed));
  }

  // --- Durability: every key holds its last acknowledged revision. ------
  auto mismatches = fx->VerifyReopen(acked);
  if (!mismatches.ok()) return fail(mismatches.status(), "re-open");
  if (*mismatches != 0) {
    all.failed += *mismatches;
    all.errors.push_back(std::to_string(*mismatches) +
                         " keys lost their last acknowledged revision");
  }
  if (!args.trace) {
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MiB", "(ru_maxrss)"});
  }
  obs::Telemetry::Global().StopTicker();
  PrintReport(metrics, all.attempted, all.failed, all.errors);
  return all.failed == 0 ? 0 : 1;
}
