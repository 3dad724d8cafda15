// TossService: the concurrent front door of the query engine (DESIGN.md
// §11 "Service layer & unified query API").
//
// The paper's Query Executor (Section 3, component 3) is the component a
// TOSS deployment puts behind a server; this class is that server-side
// surface. It owns the executor over a Database + SEO + TypeSystem and
// serves any number of client threads through ONE entry point:
//
//   service::TossService svc(&db, &seo, &types);
//   service::QueryResponse resp =
//       svc.Run(service::QueryRequest::Select("dblp", pattern, {1}));
//   if (resp.ok()) use(resp.trees);
//
// A QueryRequest names the algebra operator (a variant over Select /
// Project / GroupBy / Join specs) plus per-request options -- deadline_ms,
// collect_trace, parallelism, an optional external CancelToken. The
// response carries the answer trees, the per-phase ExecStats, the trace
// tree when requested, and a Status that makes overload and lateness
// explicit: ResourceExhausted when admission control shed the request,
// DeadlineExceeded / Cancelled when its token fired mid-query (stats hold
// whatever phases completed).
//
// Around the single request path sit the production pieces:
//   * admission control  -- max-inflight semaphore + bounded wait queue
//     (AdmissionController; `service.*` metrics);
//   * cooperative deadlines -- a per-request CancelToken threaded through
//     the executor's phases and per-document loops;
//   * a prepared-query cache -- phase (i) pushdown plans memoized by
//     canonical pattern hash, invalidated by SwapSeo (writes keep it: a
//     plan does not depend on the stored documents).
//
// Everything multi-client comes through here; service/wire.h defines the
// versioned JSON forms of QueryRequest/QueryResponse that the HTTP edge
// (src/net/) speaks on top of this entry point.

#ifndef TOSS_SERVICE_TOSS_SERVICE_H_
#define TOSS_SERVICE_TOSS_SERVICE_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <variant>
#include <vector>

#include "common/cancel.h"
#include "core/prepared_cache.h"
#include "core/query_executor.h"
#include "obs/flight_recorder.h"
#include "obs/slow_log.h"
#include "service/admission.h"

namespace toss::service {

// --- Request ---------------------------------------------------------------

struct SelectSpec {
  std::string collection;
  tax::PatternTree pattern;
  std::vector<int> sl;
};

struct ProjectSpec {
  std::string collection;
  tax::PatternTree pattern;
  std::vector<tax::ProjectItem> pl;
};

struct GroupBySpec {
  std::string collection;
  tax::PatternTree pattern;
  int group_label = 0;
  std::vector<int> sl;
};

struct JoinSpec {
  std::string left;
  std::string right;
  tax::PatternTree pattern;
  std::vector<int> sl;
};

// Durable mutations (DESIGN.md "Write path & WAL"): served through the
// same Run front door -- admission control, deadlines, metrics -- but
// routed to Database::DurableInsert/Replace/Remove under the exclusive
// executor lock, so queries never observe a half-applied document. A
// mutation whose response is OK was fsynced into the write-ahead log
// before it became visible.

struct InsertSpec {
  std::string collection;  ///< created on first insert
  std::string key;
  std::string xml;
};

struct ReplaceSpec {
  std::string collection;
  std::string key;
  std::string xml;
};

struct RemoveSpec {
  std::string collection;
  std::string key;
};

/// One request: which operator (query or durable mutation) to run, and
/// how to run it.
struct QueryRequest {
  std::variant<SelectSpec, ProjectSpec, GroupBySpec, JoinSpec, InsertSpec,
               ReplaceSpec, RemoveSpec>
      op;

  /// Wall-clock budget from admission to answer; 0 = none. Expired
  /// requests fail with DeadlineExceeded, in the queue or mid-phase.
  uint64_t deadline_ms = 0;

  /// Record a per-phase trace tree into QueryResponse::trace (the EXPLAIN
  /// ANALYZE path; same answers, same code path).
  bool collect_trace = false;

  /// Phase (iii) fan-out width; 0 = the service's default_parallelism.
  size_t parallelism = 0;

  /// Optional caller-owned cancellation, observed alongside the deadline.
  /// Must outlive the Run call.
  const CancelToken* cancel = nullptr;

  static QueryRequest Select(std::string collection,
                             tax::PatternTree pattern, std::vector<int> sl);
  static QueryRequest Project(std::string collection, tax::PatternTree pattern,
                              std::vector<tax::ProjectItem> pl);
  static QueryRequest GroupBy(std::string collection, tax::PatternTree pattern,
                              int group_label, std::vector<int> sl);
  static QueryRequest Join(std::string left, std::string right,
                           tax::PatternTree pattern, std::vector<int> sl);
  static QueryRequest Insert(std::string collection, std::string key,
                             std::string xml);
  static QueryRequest Replace(std::string collection, std::string key,
                              std::string xml);
  static QueryRequest Remove(std::string collection, std::string key);

  /// True for Insert/Replace/Remove requests (the durable write path).
  bool IsMutation() const;

  /// "select(dblp)", "join(dblp,sigmod)", "insert(dblp)", ... (trace
  /// root / log label).
  std::string OpName() const;
};

// --- Response --------------------------------------------------------------

struct QueryResponse {
  /// OK, or why there is no (complete) answer: ResourceExhausted (shed at
  /// admission), DeadlineExceeded / Cancelled (token fired while queued or
  /// mid-phase; `stats` holds the completed phases), or any error the
  /// operator itself produced (NotFound, TypeError, ...).
  Status status;

  tax::TreeCollection trees;
  core::ExecStats stats;

  /// The trace tree when the request set collect_trace and was admitted.
  std::unique_ptr<obs::Trace> trace;

  /// True when phase (i) was served from the prepared-query cache.
  bool prepared_cache_hit = false;

  /// Time spent waiting for an inflight slot (0 when admitted directly).
  double queue_wait_ms = 0.0;

  bool ok() const { return status.ok(); }
};

// --- Service ---------------------------------------------------------------

struct ServiceOptions {
  size_t max_inflight = 4;   ///< concurrent queries (clamped >= 1)
  size_t max_queue = 16;     ///< waiters beyond that before shedding
  size_t default_parallelism = 1;  ///< per-query fan-out when unset
  size_t prepared_cache_capacity = 512;

  // --- Telemetry (DESIGN.md §15) ------------------------------------------

  /// Every Run -- including shed and deadline-expired requests -- appends
  /// one RequestRecord here. Null disables recording (benchmark ablations
  /// only; the recorder is cheap enough to stay on in production).
  obs::FlightRecorder* flight_recorder = &obs::FlightRecorder::Global();

  /// Retain the full trace of 1 in this many requests in the recorder's
  /// sampled-trace ring, even when the caller did not set collect_trace.
  /// 0 disables sampling.
  uint64_t trace_sample_every = 16;

  /// Slow-query log; null disables. When set, every admitted request
  /// collects a trace (so slow/failed entries always carry one) and
  /// requests matching the log's policy -- over its latency threshold or
  /// ending in an error -- are written as JSONL through its sink.
  obs::SlowQueryLog* slow_log = nullptr;
};

/// A SlowQueryLog sink appending "<line>\n" to `path` through `env` (the
/// pluggable, fault-injectable filesystem). `env` must outlive the sink.
/// No fsync per line: slow-log durability is best-effort by design.
obs::LineSink EnvAppendLineSink(store::Env* env, std::string path);

class TossService {
 public:
  /// `seo == nullptr` serves the TAX baseline (then `types` may be null
  /// too). All pointers must outlive the service. A service over a const
  /// Database is read-only: mutation requests fail with InvalidArgument.
  TossService(const store::Database* db, const core::Seo* seo,
              const core::TypeSystem* types, ServiceOptions options = {});

  /// Read-write service: mutation requests route to `db`'s durable write
  /// path (`db` should come from Database::OpenDurable; otherwise they
  /// fail with InvalidArgument at dispatch).
  TossService(store::Database* db, const core::Seo* seo,
              const core::TypeSystem* types, ServiceOptions options = {});

  TossService(const TossService&) = delete;
  TossService& operator=(const TossService&) = delete;

  /// Serves one request. Safe to call from any number of threads; answers
  /// are identical to running the operator sequentially on a private
  /// executor (stress-tested in tests/service_test.cc).
  QueryResponse Run(const QueryRequest& request);

  /// Replaces the SEO the service queries through (e.g. after an offline
  /// rebuild at a new epsilon) and invalidates the prepared-query cache.
  /// Blocks until inflight queries drain; queries admitted afterwards see
  /// the new SEO. `seo != nullptr` requires a type system.
  Status SwapSeo(const core::Seo* seo);

  core::PreparedQueryCache::Stats PreparedCacheStats() const {
    return prepared_.GetStats();
  }
  size_t inflight() const { return admission_.inflight(); }
  const ServiceOptions& options() const { return options_; }

 private:
  Status Dispatch(const QueryRequest& request,
                  const core::QueryOptions& qopts, QueryResponse* resp,
                  obs::Span* parent);

  /// Serves one mutation request under the exclusive executor lock (no
  /// query runs while the in-memory state changes). `parent` (nullable)
  /// receives the durable write path's wal_validate / wal_commit spans.
  Status ApplyMutation(const QueryRequest& request, obs::Span* parent);

  const store::Database* db_;
  store::Database* mutable_db_ = nullptr;  ///< null: read-only service
  const core::TypeSystem* types_;
  ServiceOptions options_;
  AdmissionController admission_;
  core::PreparedQueryCache prepared_;

  /// Guards executor_ swaps: Run holds it shared for the query's duration,
  /// SwapSeo exclusively.
  mutable std::shared_mutex exec_mu_;

  /// Writer-priority turnstile in front of exec_mu_. A steady query stream
  /// re-acquires the shared lock back-to-back, which can starve exclusive
  /// waiters (mutations, SwapSeo) indefinitely on reader-preferring rwlock
  /// implementations. Exclusive acquirers hold this mutex WHILE waiting
  /// for exec_mu_; queries lock/unlock it (uncontended: two atomic ops)
  /// before taking the shared lock, so new queries queue behind a waiting
  /// writer instead of perpetually renewing the read-side.
  std::mutex write_gate_;
  std::unique_ptr<core::QueryExecutor> executor_;
};

}  // namespace toss::service

#endif  // TOSS_SERVICE_TOSS_SERVICE_H_
