// The benchmark's four workloads: their sizes, their generated inputs, and
// the set-up that stands a tossd-like server up over them.
//
// Everything here is a pure function of (workload, seed): the synthetic
// world, the distinct read requests with their exact ground truth, the
// writable documents, and every connection's request schedule. The server
// only ever sees the generated requests.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/toss.h"
#include "data/bib_generator.h"
#include "mem_env.h"
#include "net/http_server.h"
#include "service/toss_service.h"

namespace perfbench {

enum class Kind { kSelectPoint, kSelectScan, kJoinTitle, kIngestMixed };

struct Spec {
  std::string name;
  Kind kind = Kind::kSelectPoint;
  size_t papers = 0;         ///< dblp papers (join_title: per side)
  size_t people = 0;         ///< author pool of the generated world
  size_t point_queries = 0;  ///< distinct Fig. 15 selections (point kinds)
  /// Timed requests scheduled per second of --seconds. A fixed budget, not
  /// a measured rate: the same (seed, seconds) always serves the same
  /// requests, however fast the server is.
  double requests_per_second = 0;
  size_t min_reads = 0;    ///< floor: >= 10 read samples beyond read p99
  size_t min_writes = 0;   ///< floor: >= 10 write samples beyond write p99
  size_t write_every = 0;  ///< 1 timed request in N is a write; 0 = none
  /// Sequential writes on one connection after the timed phase of a
  /// read-only workload (its write latency on an otherwise idle server),
  /// per second of --seconds; a fixed budget like requests_per_second.
  double probe_writes_per_second = 0;
  size_t probe_papers = 0;   ///< documents in the probe's own collection
  size_t setup_repeats = 1;  ///< setup_s is the median of this many
};

/// The named workload at full or smoke size; false for an unknown name.
bool LookupSpec(const std::string& name, bool smoke, Spec* out);

/// One distinct read request, its exact ground truth, and its golden.
struct ReadQuery {
  std::string label;  ///< request class, e.g. "point", "scan:VLDB", "join"
  toss::service::QueryRequest request;
  std::string body;   ///< its wire request document
  std::string http;   ///< the complete POST /v1/query request bytes
  /// Ground truth: correct paper ids (selections) or correct
  /// (dblp paper, sigmod article) provenance pairs (the join).
  std::set<uint64_t> correct;

  // Golden, from an in-process TossService::Run after setup.
  std::string golden_trees;        ///< the response's "trees" JSON array
  std::set<uint64_t> golden_roots; ///< root provenance of the answer trees
  size_t golden_count = 0;         ///< answer trees
  double quality = 0;              ///< sqrt(P * R) against `correct`
  double run_ms = 0;               ///< in-process Run time
};

/// One writable dblp document: its XML split around the <pages> text, so
/// revision r renders as the same paper with pages "<pages>/r<r>". Every
/// queried element (author, booktitle, title) stays byte-identical.
struct DocTemplate {
  std::string key;
  std::string head;   ///< XML up to and including "<pages>"
  std::string pages;  ///< the original pages text
  std::string tail;   ///< "</pages>" to the end
  std::string Render(uint32_t revision) const;
  std::string PagesAt(uint32_t revision) const;  ///< 0 = original
};

/// Wall time of each set-up step, in seconds, plus the similarity scan's
/// filter counters over the SEO build.
struct SetupTimes {
  double generate_s = 0;      ///< GenerateWorld + Emit* + query generation
  double load_s = 0;          ///< LoadIntoCollection
  double ontology_s = 0;      ///< MakeOntologyForDocuments
  double seo_build_s = 0;     ///< SeoBuilder::Build
  double durable_open_s = 0;  ///< Save + Database::OpenDurable
  double start_s = 0;         ///< TossService + HttpServer::Start
  double warmup_s = 0;        ///< one HTTP pass over the distinct reads
  double total_s = 0;
  uint64_t pairs_filtered = 0;
  uint64_t pairs_computed = 0;
};

/// A served world: durable database, SEO, service, and HTTP server,
/// configured like tossd (4 workers, max_inflight 4).
class Fixture {
 public:
  /// Runs the whole timed set-up. Errors name the failing step.
  static toss::Result<std::unique_ptr<Fixture>> Build(const Spec& spec,
                                                      uint64_t seed);
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  /// Fills every read's golden and quality from an in-process service of
  /// its own over the same database (untimed).
  toss::Status MakeGoldens();

  /// Replaces the HTTP server by one serving `handler` (the traced run).
  toss::Status Restart(toss::net::Handler handler);

  /// Stops the server, drops the service, and closes the database.
  void Shutdown();

  /// Re-opens the durable directory and checks that document i holds
  /// revision expected[i] (0 = as loaded). Returns the mismatch count.
  toss::Result<size_t> VerifyReopen(const std::vector<uint32_t>& expected);

  const Spec& spec() const { return spec_; }
  const std::vector<ReadQuery>& reads() const { return reads_; }
  /// The writable documents and the collection holding them: the queried
  /// dblp corpus on ingest_mixed, the write probe's own collection else.
  const std::vector<DocTemplate>& docs() const { return docs_; }
  const std::string& write_collection() const { return write_collection_; }
  const SetupTimes& times() const { return times_; }
  toss::service::TossService* service() { return service_.get(); }
  uint16_t port() const { return server_->port(); }

 private:
  Fixture() = default;

  Spec spec_;
  std::vector<ReadQuery> reads_;
  std::vector<DocTemplate> docs_;
  std::string write_collection_;
  SetupTimes times_;
  MemEnv env_;
  std::unique_ptr<toss::store::Database> db_;
  toss::core::Seo seo_;
  toss::core::TypeSystem types_;
  std::unique_ptr<toss::service::TossService> service_;
  std::unique_ptr<toss::net::HttpServer> server_;
};

/// Request bytes for POST `target` carrying `body`; a nonzero `slot` adds
/// the X-Bench-Slot header the traced handler files its record under.
std::string HttpPost(const std::string& target, const std::string& body,
                     uint64_t slot = 0);

/// One scheduled request: a read of reads()[index], or a write of
/// revision `revision` to docs()[index].
struct Op {
  uint32_t index = 0;
  uint32_t revision = 0;
  bool write = false;
};

/// Per-connection request sequences for `total` requests over `conns`
/// connections: reads walk seeded shuffles of the distinct reads; one in
/// `write_every` requests (0 = none) writes a document from the
/// connection's own key range (index % conns == connection). `revisions`
/// holds each document's last scheduled revision and is advanced.
std::vector<std::vector<Op>> MakeSchedule(size_t total, size_t conns,
                                          size_t write_every,
                                          size_t read_count,
                                          std::vector<uint32_t>* revisions,
                                          uint64_t seed);

/// The "trees" array of a wire response body, or empty when absent.
std::string_view TreesOf(std::string_view body);

/// Root gtid of every tree in a wire "trees" array; false when malformed.
bool RootProvenance(std::string_view trees, std::set<uint64_t>* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
