#include "service/toss_service.h"

#include <chrono>
#include <optional>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"

namespace toss::service {

namespace {

struct ServiceMetrics {
  obs::Counter& requests = obs::Metrics().GetCounter("service.requests");
  obs::Counter& ok = obs::Metrics().GetCounter("service.ok");
  obs::Counter& errors = obs::Metrics().GetCounter("service.errors");
  obs::Counter& deadline_exceeded =
      obs::Metrics().GetCounter("service.deadline_exceeded");
  obs::Counter& cancelled = obs::Metrics().GetCounter("service.cancelled");
  obs::Counter& seo_swaps = obs::Metrics().GetCounter("service.seo_swaps");
  obs::Counter& mutations = obs::Metrics().GetCounter("service.mutations");
  obs::Counter& mutation_errors =
      obs::Metrics().GetCounter("service.mutation_errors");
  obs::Histogram& run_ns =
      obs::Metrics().GetHistogram("service.run_latency_ns");
  obs::Histogram& mutation_ns =
      obs::Metrics().GetHistogram("service.mutation_latency_ns");
};

ServiceMetrics& Instruments() {
  static ServiceMetrics* m = new ServiceMetrics();
  return *m;
}

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

}  // namespace

QueryRequest QueryRequest::Select(std::string collection,
                                  tax::PatternTree pattern,
                                  std::vector<int> sl) {
  QueryRequest r;
  r.op = SelectSpec{std::move(collection), std::move(pattern), std::move(sl)};
  return r;
}

QueryRequest QueryRequest::Project(std::string collection,
                                   tax::PatternTree pattern,
                                   std::vector<tax::ProjectItem> pl) {
  QueryRequest r;
  r.op = ProjectSpec{std::move(collection), std::move(pattern), std::move(pl)};
  return r;
}

QueryRequest QueryRequest::GroupBy(std::string collection,
                                   tax::PatternTree pattern, int group_label,
                                   std::vector<int> sl) {
  QueryRequest r;
  r.op = GroupBySpec{std::move(collection), std::move(pattern), group_label,
                     std::move(sl)};
  return r;
}

QueryRequest QueryRequest::Join(std::string left, std::string right,
                                tax::PatternTree pattern,
                                std::vector<int> sl) {
  QueryRequest r;
  r.op = JoinSpec{std::move(left), std::move(right), std::move(pattern),
                  std::move(sl)};
  return r;
}

QueryRequest QueryRequest::Insert(std::string collection, std::string key,
                                  std::string xml) {
  QueryRequest r;
  r.op = InsertSpec{std::move(collection), std::move(key), std::move(xml)};
  return r;
}

QueryRequest QueryRequest::Replace(std::string collection, std::string key,
                                   std::string xml) {
  QueryRequest r;
  r.op = ReplaceSpec{std::move(collection), std::move(key), std::move(xml)};
  return r;
}

QueryRequest QueryRequest::Remove(std::string collection, std::string key) {
  QueryRequest r;
  r.op = RemoveSpec{std::move(collection), std::move(key)};
  return r;
}

bool QueryRequest::IsMutation() const {
  return std::holds_alternative<InsertSpec>(op) ||
         std::holds_alternative<ReplaceSpec>(op) ||
         std::holds_alternative<RemoveSpec>(op);
}

std::string QueryRequest::OpName() const {
  return std::visit(
      Overloaded{
          [](const SelectSpec& s) { return "select(" + s.collection + ")"; },
          [](const ProjectSpec& s) { return "project(" + s.collection + ")"; },
          [](const GroupBySpec& s) { return "groupby(" + s.collection + ")"; },
          [](const JoinSpec& s) {
            return "join(" + s.left + "," + s.right + ")";
          },
          [](const InsertSpec& s) { return "insert(" + s.collection + ")"; },
          [](const ReplaceSpec& s) { return "replace(" + s.collection + ")"; },
          [](const RemoveSpec& s) { return "remove(" + s.collection + ")"; },
      },
      op);
}

TossService::TossService(const store::Database* db, const core::Seo* seo,
                         const core::TypeSystem* types,
                         ServiceOptions options)
    : db_(db),
      types_(types),
      options_(options),
      admission_(options.max_inflight, options.max_queue),
      prepared_(options.prepared_cache_capacity),
      executor_(std::make_unique<core::QueryExecutor>(db, seo, types)) {}

TossService::TossService(store::Database* db, const core::Seo* seo,
                         const core::TypeSystem* types, ServiceOptions options)
    : TossService(static_cast<const store::Database*>(db), seo, types,
                  options) {
  mutable_db_ = db;
}

Status TossService::Dispatch(const QueryRequest& request,
                             const core::QueryOptions& qopts,
                             QueryResponse* resp, obs::Span* parent) {
  const core::QueryExecutor& exec = *executor_;
  Result<tax::TreeCollection> r = std::visit(
      Overloaded{
          [&](const SelectSpec& s) {
            return exec.Select(s.collection, s.pattern, s.sl, qopts,
                               &resp->stats, parent);
          },
          [&](const ProjectSpec& s) {
            return exec.Project(s.collection, s.pattern, s.pl, qopts,
                                &resp->stats, parent);
          },
          [&](const GroupBySpec& s) {
            return exec.GroupBy(s.collection, s.pattern, s.group_label, s.sl,
                                qopts, &resp->stats, parent);
          },
          [&](const JoinSpec& s) {
            return exec.Join(s.left, s.right, s.pattern, s.sl, qopts,
                             &resp->stats, parent);
          },
          // Mutations never reach Dispatch -- Run routes them to
          // ApplyMutation before taking the shared executor lock.
          [&](const InsertSpec&) -> Result<tax::TreeCollection> {
            return Status::Internal("mutation dispatched as query");
          },
          [&](const ReplaceSpec&) -> Result<tax::TreeCollection> {
            return Status::Internal("mutation dispatched as query");
          },
          [&](const RemoveSpec&) -> Result<tax::TreeCollection> {
            return Status::Internal("mutation dispatched as query");
          },
      },
      request.op);
  if (!r.ok()) return r.status();
  resp->trees = std::move(r).value();
  return Status::OK();
}

obs::LineSink EnvAppendLineSink(store::Env* env, std::string path) {
  return [env, path = std::move(path)](const std::string& line) {
    return env->AppendFile(path, line + "\n").ok();
  };
}

Status TossService::ApplyMutation(const QueryRequest& request,
                                  obs::Span* parent) {
  if (mutable_db_ == nullptr) {
    return Status::InvalidArgument(
        "read-only service: construct TossService with a mutable Database "
        "to accept mutations");
  }
  // Exclusive where queries hold shared: the in-memory apply happens with
  // no query in flight, exactly like SwapSeo. The prepared cache stays: a
  // plan depends on the pattern and the SEO, not on the stored documents.
  // The WAL fsync happens inside DurableMutate BEFORE the apply, so OK
  // here means durable. The turnstile (held only while WAITING for the
  // exclusive lock) keeps a steady query stream from starving the
  // mutation.
  std::unique_lock<std::mutex> gate(write_gate_);
  std::unique_lock<std::shared_mutex> exec_lock(exec_mu_);
  gate.unlock();
  return std::visit(
      Overloaded{
          [&](const InsertSpec& s) {
            return mutable_db_->DurableInsert(s.collection, s.key, s.xml,
                                              parent);
          },
          [&](const ReplaceSpec& s) {
            return mutable_db_->DurableReplace(s.collection, s.key, s.xml,
                                               parent);
          },
          [&](const RemoveSpec& s) {
            return mutable_db_->DurableRemove(s.collection, s.key, parent);
          },
          [&](const auto&) {
            return Status::Internal("query dispatched as mutation");
          },
      },
      request.op);
}

QueryResponse TossService::Run(const QueryRequest& request) {
  ServiceMetrics& m = Instruments();
  m.requests.Increment();
  QueryResponse resp;

  // Flight-recorder skeleton: id, wall clock, and op kind now; outcome
  // fields are filled by Finish on every return path (shed included).
  obs::FlightRecorder* recorder = options_.flight_recorder;
  obs::RequestRecord rec;
  if (recorder != nullptr) {
    rec.id = recorder->MintId();
    rec.start_unix_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }
  rec.op = static_cast<uint8_t>(request.op.index());
  const bool sample_trace = recorder != nullptr &&
                            options_.trace_sample_every > 0 &&
                            rec.id % options_.trace_sample_every == 0;
  // The slow log needs a trace for every request it might end up logging,
  // which is knowable only after the fact -- so its presence turns trace
  // collection on unconditionally.
  const bool want_trace =
      request.collect_trace || sample_trace || options_.slow_log != nullptr;

  auto Finish = [&] {
    if (recorder == nullptr && options_.slow_log == nullptr) return;
    rec.queue_wait_ms = static_cast<float>(resp.queue_wait_ms);
    rec.status = static_cast<uint32_t>(resp.status.code());
    rec.candidate_docs = static_cast<uint32_t>(resp.stats.candidate_docs);
    rec.result_trees = static_cast<uint32_t>(resp.stats.result_trees);
    rec.expanded_terms = static_cast<uint32_t>(resp.stats.expanded_terms);
    rec.engine = static_cast<uint8_t>(resp.stats.join_engine);
    if (resp.prepared_cache_hit) {
      rec.flags |= obs::RequestRecord::kPreparedCacheHit;
    }
    if (request.IsMutation()) rec.flags |= obs::RequestRecord::kMutation;
    const bool retain = sample_trace && resp.trace != nullptr;
    if (retain) rec.flags |= obs::RequestRecord::kTraceSampled;
    const bool slow =
        options_.slow_log != nullptr && options_.slow_log->ShouldLog(rec);
    // Only a trace something keeps is turned into a JSON tree.
    common::JsonValue trace;
    if (resp.trace != nullptr && (retain || slow)) trace = resp.trace->Json();
    if (recorder != nullptr) recorder->Record(rec);
    if (slow) options_.slow_log->Log(rec, resp.status.ToString(), trace);
    if (retain) recorder->RetainTrace(rec.id, std::move(trace));
    // Traces collected only for telemetry stay out of the response.
    if (!request.collect_trace) resp.trace.reset();
  };

  // The effective token: the caller's (optional), wrapped with the
  // request's deadline when one is set.
  const CancelToken* effective = request.cancel;
  std::optional<CancelToken> deadline_token;
  if (request.deadline_ms > 0) {
    deadline_token.emplace(
        CancelToken::Clock::now() +
            std::chrono::milliseconds(request.deadline_ms),
        request.cancel);
    effective = &*deadline_token;
  }

  Timer wait_timer;
  Status admitted = admission_.Acquire(effective);
  resp.queue_wait_ms = wait_timer.ElapsedMillis();
  if (!admitted.ok()) {
    resp.status = std::move(admitted);
    m.errors.Increment();
    if (resp.status.IsDeadlineExceeded()) m.deadline_exceeded.Increment();
    if (resp.status.IsCancelled()) m.cancelled.Increment();
    if (resp.status.code() == StatusCode::kResourceExhausted) {
      rec.flags |= obs::RequestRecord::kShed;
    }
    Finish();
    return resp;
  }

  Timer run_timer;
  if (request.IsMutation()) {
    // The deadline/cancel token is honored up to the WAL append; once the
    // record is queued for group commit the mutation runs to completion
    // (aborting after fsync would desynchronize log and memory).
    resp.status = CheckCancel(effective);
    if (resp.status.ok()) {
      if (want_trace) {
        resp.trace = std::make_unique<obs::Trace>(request.OpName());
        obs::Span root = resp.trace->RootSpan();
        resp.status = ApplyMutation(request, &root);
      } else {
        resp.status = ApplyMutation(request, nullptr);
      }
    }
    m.mutations.Increment();
    if (!resp.status.ok()) m.mutation_errors.Increment();
    m.mutation_ns.Record(static_cast<uint64_t>(run_timer.ElapsedNanos()));
  } else {
    // Shared-lock the executor so SwapSeo cannot replace it mid-query,
    // passing the turnstile first so a waiting mutation is never starved.
    { std::lock_guard<std::mutex> gate(write_gate_); }
    std::shared_lock<std::shared_mutex> exec_lock(exec_mu_);
    core::QueryOptions qopts;
    qopts.parallelism = request.parallelism > 0
                            ? request.parallelism
                            : options_.default_parallelism;
    qopts.cancel = effective;
    qopts.prepared = &prepared_;
    if (want_trace) {
      resp.trace = std::make_unique<obs::Trace>(request.OpName());
      obs::Span root = resp.trace->RootSpan();
      resp.status = Dispatch(request, qopts, &resp, &root);
    } else {
      resp.status = Dispatch(request, qopts, &resp, nullptr);
    }
  }
  admission_.Release();

  rec.exec_ms = static_cast<float>(run_timer.ElapsedMillis());
  m.run_ns.Record(static_cast<uint64_t>(run_timer.ElapsedNanos()));
  resp.prepared_cache_hit = resp.stats.prepared_cache_hits > 0;
  if (resp.status.ok()) {
    m.ok.Increment();
  } else {
    m.errors.Increment();
    if (resp.status.IsDeadlineExceeded()) m.deadline_exceeded.Increment();
    if (resp.status.IsCancelled()) m.cancelled.Increment();
  }
  Finish();
  return resp;
}

Status TossService::SwapSeo(const core::Seo* seo) {
  if (seo != nullptr && types_ == nullptr) {
    return Status::InvalidArgument(
        "SwapSeo: a type system is required to serve TOSS queries");
  }
  std::unique_lock<std::mutex> gate(write_gate_);
  std::unique_lock<std::shared_mutex> exec_lock(exec_mu_);
  gate.unlock();
  executor_ = std::make_unique<core::QueryExecutor>(db_, seo, types_);
  prepared_.Clear();
  Instruments().seo_swaps.Increment();
  return Status::OK();
}

}  // namespace toss::service
