#include "workload.h"

#include <numeric>
#include <utility>

#include "common/json.h"
#include "common/random.h"
#include "common/timer.h"
#include "data/workload.h"
#include "eval/metrics.h"
#include "http_client.h"
#include "net/toss_handler.h"
#include "obs/metrics.h"
#include "service/wire.h"

namespace perfbench {

using namespace toss;

namespace {

constexpr const char* kDbDir = "db";
constexpr const char* kProbeCollection = "probe";

/// The writable documents, split around their <pages> text, in load order.
std::vector<DocTemplate> MakeTemplates(const std::vector<data::NamedDoc>& docs) {
  std::vector<DocTemplate> out;
  out.reserve(docs.size());
  for (const auto& [key, doc] : docs) {
    const std::string text = xml::Write(doc);
    const size_t open = text.find("<pages>");
    const size_t close = text.find("</pages>");
    DocTemplate t;
    t.key = key;
    t.head = text.substr(0, open + 7);
    t.pages = text.substr(open + 7, close - open - 7);
    t.tail = text.substr(close);
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<const xml::XmlDocument*> DocsOf(const store::Database& db,
                                            const std::string& name) {
  std::vector<const xml::XmlDocument*> out;
  const store::Collection* coll = *db.GetCollection(name);
  for (store::DocId id : coll->AllDocs()) out.push_back(&coll->document(id));
  return out;
}

ReadQuery MakeRead(std::string label, service::QueryRequest request,
                   std::set<uint64_t> correct) {
  ReadQuery q;
  q.label = std::move(label);
  q.body = service::wire::RequestJson(request);
  q.http = HttpPost("/v1/query", q.body);
  q.request = std::move(request);
  q.correct = std::move(correct);
  return q;
}

/// One (dblp paper, sigmod article) provenance pair as a set element.
uint64_t PairKey(uint64_t left, uint64_t right) {
  return (left << 32) | (right & 0xffffffffu);
}

/// (dblp inproceedings, sigmod article) provenance pairs of join answers.
std::set<uint64_t> JoinPairs(const tax::TreeCollection& trees) {
  std::set<uint64_t> out;
  for (const tax::DataTree& tree : trees) {
    uint64_t left = 0, right = 0;
    for (tax::NodeId v = 0; v < tree.size(); ++v) {
      const auto& n = tree.node(v);
      if (n.tag == "inproceedings") left = n.provenance;
      if (n.tag == "article") right = n.provenance;
    }
    out.insert(PairKey(left, right));
  }
  return out;
}

uint64_t CounterValue(const char* name) {
  return obs::Metrics().GetCounter(name).Value();
}

}  // namespace

bool LookupSpec(const std::string& name, bool smoke, Spec* out) {
  Spec s;
  s.name = name;
  s.setup_repeats = smoke ? 1 : 3;
  s.min_reads = smoke ? 0 : 1000;
  s.probe_writes_per_second = smoke ? 2 : 500;
  s.probe_papers = smoke ? 200 : 2000;
  if (name == "select_point" || name == "ingest_mixed") {
    s.kind = name == "select_point" ? Kind::kSelectPoint : Kind::kIngestMixed;
    s.papers = smoke ? 200 : 2000;
    s.people = smoke ? 40 : 200;
    s.point_queries = smoke ? 16 : 256;
    s.requests_per_second = 700;
    if (s.kind == Kind::kIngestMixed) {
      s.requests_per_second = 650;
      s.write_every = 5;
      s.min_writes = smoke ? 0 : 1000;
      s.probe_writes_per_second = 0;
    }
  } else if (name == "select_scan") {
    s.kind = Kind::kSelectScan;
    s.papers = smoke ? 200 : 2000;
    s.people = smoke ? 40 : 400;
    s.requests_per_second = 65;
  } else if (name == "join_title") {
    s.kind = Kind::kJoinTitle;
    s.papers = smoke ? 50 : 400;
    s.people = smoke ? 25 : 120;
    s.requests_per_second = 48;
  } else {
    return false;
  }
  if (smoke) s.requests_per_second = 4;  // ~40 requests at --seconds 10
  *out = s;
  return true;
}

std::string DocTemplate::PagesAt(uint32_t revision) const {
  return revision == 0 ? pages : pages + "/r" + std::to_string(revision);
}

std::string DocTemplate::Render(uint32_t revision) const {
  return head + PagesAt(revision) + tail;
}

std::string HttpPost(const std::string& target, const std::string& body,
                     uint64_t slot) {
  std::string out = "POST " + target + " HTTP/1.1\r\nHost: bench\r\n";
  if (slot != 0) out += "X-Bench-Slot: " + std::to_string(slot) + "\r\n";
  out += "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

Result<std::unique_ptr<Fixture>> Fixture::Build(const Spec& spec,
                                                uint64_t seed) {
  std::unique_ptr<Fixture> fx(new Fixture());
  fx->spec_ = spec;
  SetupTimes& t = fx->times_;
  Timer total;

  // --- data: the world, its documents, and the read requests. -----------
  Timer step;
  data::BibConfig cfg;
  cfg.seed = seed;
  cfg.num_papers = spec.papers;
  cfg.num_people = spec.people;
  const data::BibWorld world = data::GenerateWorld(cfg);
  std::vector<data::NamedDoc> dblp = data::EmitDblp(world, 0, spec.papers, cfg);
  std::vector<data::NamedDoc> sigmod;
  if (spec.kind == Kind::kJoinTitle) {
    sigmod = data::EmitSigmod(world, 0, spec.papers, cfg);
  }
  // Writes go to the queried corpus on ingest_mixed. A read-only workload's
  // write probe gets a collection of its own that no read touches, sized
  // like select_point's corpus, so its reads stay byte-identical to their
  // goldens and every workload's probe writes into the same shape of data.
  std::vector<data::NamedDoc> probe;
  if (spec.kind == Kind::kIngestMixed) {
    fx->write_collection_ = "dblp";
    fx->docs_ = MakeTemplates(dblp);
  } else {
    data::BibConfig probe_cfg;
    probe_cfg.seed = seed + 2;
    probe_cfg.num_papers = spec.probe_papers;
    probe_cfg.num_people = spec.probe_papers / 10;
    probe = data::EmitDblp(data::GenerateWorld(probe_cfg), 0,
                           spec.probe_papers, probe_cfg);
    fx->write_collection_ = kProbeCollection;
    fx->docs_ = MakeTemplates(probe);
  }

  switch (spec.kind) {
    case Kind::kSelectPoint:
    case Kind::kIngestMixed: {
      TOSS_ASSIGN_OR_RETURN(
          auto queries,
          data::MakeSelectionWorkload(world, 0, spec.papers,
                                      spec.point_queries, seed + 1));
      for (auto& q : queries) {
        std::set<uint64_t> correct(q.correct.begin(), q.correct.end());
        fx->reads_.push_back(MakeRead(
            "point",
            service::QueryRequest::Select("dblp", std::move(q.pattern), q.sl),
            std::move(correct)));
      }
      break;
    }
    case Kind::kSelectScan:
      // Fig. 16(a)'s venue queries, only the four whose answers are broad
      // (about two thirds of the corpus, ~380 KiB): one cost class. The
      // SIGMOD Conference and SIGIR queries answer a sixth of the corpus
      // at half the cost and would make the latency median bimodal.
      for (const auto& venue : world.venues) {
        static const std::set<std::string> kBroad = {"VLDB", "ICDE", "PODS",
                                                     "KDD"};
        if (!kBroad.count(venue.short_name)) continue;
        std::set<uint64_t> correct;
        for (const auto& p : world.papers) {
          if (p.venue == venue.id) correct.insert(p.id);
        }
        fx->reads_.push_back(MakeRead(
            "scan:" + venue.short_name,
            service::QueryRequest::Select(
                "dblp",
                data::MakeScalabilitySelectionPattern(venue.short_name,
                                                      venue.category),
                {1}),
            std::move(correct)));
      }
      break;
    case Kind::kJoinTitle: {
      std::set<uint64_t> correct;
      for (const auto& p : world.papers) correct.insert(PairKey(p.id, p.id));
      fx->reads_.push_back(MakeRead(
          "join",
          service::QueryRequest::Join("dblp", "sigmod",
                                      data::MakeTitleJoinPattern(), {2, 4}),
          std::move(correct)));
      break;
    }
  }
  t.generate_s = step.ElapsedMillis() / 1e3;

  // --- store: load the staging database. --------------------------------
  step.Reset();
  store::Database staging;
  TOSS_RETURN_NOT_OK(data::LoadIntoCollection(&staging, "dblp", std::move(dblp)));
  if (!sigmod.empty()) {
    TOSS_RETURN_NOT_OK(
        data::LoadIntoCollection(&staging, "sigmod", std::move(sigmod)));
  }
  if (!probe.empty()) {
    TOSS_RETURN_NOT_OK(data::LoadIntoCollection(&staging, kProbeCollection,
                                                std::move(probe)));
  }
  t.load_s = step.ElapsedMillis() / 1e3;

  // --- ontology: one instance ontology per collection. ------------------
  step.Reset();
  std::vector<ontology::Ontology> ontologies;
  for (const std::string& name : staging.CollectionNames()) {
    if (name == kProbeCollection) continue;
    ontology::OntologyMakerOptions opts;
    opts.content_tags = name == "dblp" ? data::DblpContentTags()
                                       : data::SigmodContentTags();
    TOSS_ASSIGN_OR_RETURN(
        auto onto, ontology::MakeOntologyForDocuments(
                       DocsOf(staging, name),
                       lexicon::BuiltinBibliographicLexicon(), opts));
    ontologies.push_back(std::move(onto));
  }
  t.ontology_s = step.ElapsedMillis() / 1e3;

  // --- core: the SEO. ----------------------------------------------------
  step.Reset();
  const uint64_t filtered0 = CounterValue("sim.pairwise.pairs_filtered");
  const uint64_t computed0 = CounterValue("sim.pairwise.pairs_computed");
  core::SeoBuilder builder;
  for (auto& onto : ontologies) builder.AddInstanceOntology(std::move(onto));
  std::string measure = "levenshtein";
  double epsilon = 3.0;
  if (spec.kind == Kind::kSelectPoint || spec.kind == Kind::kIngestMixed) {
    measure = "guarded-levenshtein";
  } else if (spec.kind == Kind::kJoinTitle) {
    builder.AddConstraints(ontology::kPartOf,
                           ontology::Eq("booktitle", 0, "conference", 1));
    epsilon = 2.0;
  }
  TOSS_ASSIGN_OR_RETURN(auto m, sim::MakeMeasure(measure));
  builder.SetMeasure(std::move(m));
  builder.SetEpsilon(epsilon);
  TOSS_ASSIGN_OR_RETURN(fx->seo_, builder.Build());
  t.pairs_filtered = CounterValue("sim.pairwise.pairs_filtered") - filtered0;
  t.pairs_computed = CounterValue("sim.pairwise.pairs_computed") - computed0;
  t.seo_build_s = step.ElapsedMillis() / 1e3;

  // --- store: the durable database the server writes through. ----------
  step.Reset();
  TOSS_RETURN_NOT_OK(staging.Save(kDbDir, &fx->env_));
  TOSS_ASSIGN_OR_RETURN(auto db, store::Database::OpenDurable(kDbDir, &fx->env_));
  fx->db_ = std::make_unique<store::Database>(std::move(db));
  t.durable_open_s = step.ElapsedMillis() / 1e3;

  // --- service + net: the server, configured like tossd. ----------------
  step.Reset();
  fx->types_ = core::MakeBibliographicTypeSystem();
  service::ServiceOptions service_options;
  service_options.max_inflight = 4;
  fx->service_ = std::make_unique<service::TossService>(
      fx->db_.get(), &fx->seo_, &fx->types_, service_options);
  TOSS_RETURN_NOT_OK(fx->Restart(net::MakeTossHandler(fx->service_.get())));
  t.start_s = step.ElapsedMillis() / 1e3;

  // --- warm-up: every distinct read once, over HTTP. ---------------------
  step.Reset();
  {
    HttpClient client;
    if (!client.Connect(fx->port())) {
      return Status::IOError("warm-up: cannot connect");
    }
    for (const ReadQuery& q : fx->reads_) {
      if (!client.Send(q.http) || client.ReadResponse() != 200) {
        return Status::Internal("warm-up: request failed: " + q.label);
      }
    }
  }
  t.warmup_s = step.ElapsedMillis() / 1e3;
  t.total_s = total.ElapsedMillis() / 1e3;
  return fx;
}

Fixture::~Fixture() { Shutdown(); }

Status Fixture::Restart(net::Handler handler) {
  server_.reset();
  net::ServerOptions options;
  options.worker_threads = 4;
  server_ = std::make_unique<net::HttpServer>(std::move(handler), options);
  return server_->Start();
}

void Fixture::Shutdown() {
  server_.reset();
  service_.reset();
  db_.reset();
}

Status Fixture::MakeGoldens() {
  const store::Database* db = db_.get();
  service::TossService golden(db, &seo_, &types_);
  for (ReadQuery& q : reads_) {
    Timer timer;
    service::QueryResponse resp = golden.Run(q.request);
    q.run_ms = timer.ElapsedMillis();
    TOSS_RETURN_NOT_OK(resp.status);
    q.golden_trees = std::string(TreesOf(service::wire::ResponseJson(resp)));
    q.golden_roots = eval::ExtractRootProvenance(resp.trees);
    q.golden_count = resp.trees.size();
    const std::set<uint64_t> returned = spec_.kind == Kind::kJoinTitle
                                            ? JoinPairs(resp.trees)
                                            : q.golden_roots;
    q.quality = eval::ComputePr(returned, q.correct).quality;
  }
  return Status::OK();
}

Result<size_t> Fixture::VerifyReopen(const std::vector<uint32_t>& expected) {
  Shutdown();
  TOSS_ASSIGN_OR_RETURN(auto db, store::Database::OpenDurable(kDbDir, &env_));
  TOSS_ASSIGN_OR_RETURN(const store::Collection* coll,
                        std::as_const(db).GetCollection(write_collection_));
  size_t mismatches = 0;
  for (size_t i = 0; i < docs_.size(); ++i) {
    auto id = coll->FindKey(docs_[i].key);
    const std::string want = "<pages>" + docs_[i].PagesAt(expected[i]) + "</pages>";
    if (!id.ok() ||
        xml::Write(coll->document(*id)).find(want) == std::string::npos) {
      ++mismatches;
    }
  }
  return mismatches;
}

std::vector<std::vector<Op>> MakeSchedule(size_t total, size_t conns,
                                          size_t write_every,
                                          size_t read_count,
                                          std::vector<uint32_t>* revisions,
                                          uint64_t seed) {
  std::vector<std::vector<Op>> out(conns);
  const size_t doc_count = revisions->size();
  for (size_t c = 0; c < conns; ++c) {
    Random rng(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL * (c + 1));
    const size_t n = total / conns + (c < total % conns ? 1 : 0);
    std::vector<uint32_t> pass(read_count);
    size_t next_read = read_count;  // exhausted: shuffle a new pass
    for (size_t i = 0; i < n; ++i) {
      Op op;
      if (write_every != 0 && i % write_every == write_every - 1) {
        // Documents owned by this connection: index % conns == c.
        const size_t owned = (doc_count - c + conns - 1) / conns;
        op.write = true;
        op.index = static_cast<uint32_t>(c + conns * rng.Uniform(owned));
        op.revision = ++(*revisions)[op.index];
      } else {
        if (next_read == read_count) {
          std::iota(pass.begin(), pass.end(), 0u);
          for (size_t k = read_count; k > 1; --k) {
            std::swap(pass[k - 1], pass[rng.Uniform(k)]);
          }
          next_read = 0;
        }
        op.index = pass[next_read++];
      }
      out[c].push_back(op);
    }
  }
  return out;
}

std::string_view TreesOf(std::string_view body) {
  // Wire responses render members in key order, so "trees" is the member
  // right before "version" (see service/wire.h).
  const size_t begin = body.find("\"trees\":[");
  const size_t end = body.rfind(",\"version\":");
  if (begin == std::string_view::npos || end == std::string_view::npos ||
      end < begin) {
    return {};
  }
  return body.substr(begin + 8, end - begin - 8);
}

bool RootProvenance(std::string_view trees, std::set<uint64_t>* out) {
  auto parsed = common::JsonValue::Parse(trees);
  if (!parsed.ok() || !parsed->is_array()) return false;
  for (const common::JsonValue& tree : parsed->array()) {
    const std::string& xml = tree.AsString();
    const size_t tag_end = xml.find('>');
    const size_t gtid = xml.find("gtid=\"");
    if (gtid == std::string::npos || gtid > tag_end) return false;
    out->insert(std::strtoull(xml.c_str() + gtid + 6, nullptr, 10));
  }
  return true;
}

}  // namespace perfbench
