// Query Executor (paper Section 3, component 3; Section 6 timing model).
//
// Executes TAX/TOSS algebra queries against the embedded XML store in the
// paper's three instrumented phases:
//   (i)   parse the pattern tree and rewrite it into a typed pushdown plan,
//         one store::PlanStep per labelled node -- for TOSS, ~ / isa /
//         part_of conditions are first expanded through the SEO into
//         any-of groups of concrete terms;
//   (ii)  answer the plan in the store (Collection::PlanDocs): steps come
//         from the postings where those are exact, and documents are
//         checked element by element only for the steps they cannot decide;
//   (iii) convert surviving documents into TAX data trees and evaluate the
//         full algebra operator (selection / projection / join) with the
//         appropriate condition semantics.
//
// The same executor runs the TAX baseline: construct it without an SEO and
// conditions degrade to exact / "contains" matching (TaxSemantics), with no
// term expansion in phase (i).
//
// Thread safety: one executor serves concurrent queries. The SEO and
// type-system reachability caches are frozen at construction, per-query
// state (stats, spans, candidate lists, result parts) lives on the calling
// thread's stack, and the store's decoded-tree cache is internally locked.
// The per-request knobs -- parallelism, cancellation/deadline token,
// prepared-rewrite cache -- travel in QueryOptions, not in executor state.
// The one shared mutable resource, the worker pool, is claimed per query
// with a try-lock: the query that gets it fans out, concurrent ones run
// their loops inline (identical answers either way).
//
// service::TossService is the front door for multi-client use; it adds
// admission control, deadlines, and the prepared-query cache around this
// class, and service/wire.h defines the JSON forms the network edge speaks.
// In-process callers use the four QueryOptions entry points below directly;
// the old options-free per-operator wrappers and ExplainAnalyze* variants
// were retired (pass QueryOptions, or set QueryRequest::collect_trace on
// the service path, for the same behavior).

#ifndef TOSS_CORE_QUERY_EXECUTOR_H_
#define TOSS_CORE_QUERY_EXECUTOR_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "common/worker_pool.h"
#include "core/prepared_cache.h"
#include "core/seo.h"
#include "obs/trace.h"
#include "core/seo_semantics.h"
#include "core/types.h"
#include "store/database.h"
#include "tax/operators.h"
#include "tax/tax_semantics.h"

namespace toss::core {

/// Per-query phase timings and counters (Fig. 16's measured quantities).
struct ExecStats {
  double rewrite_ms = 0.0;  ///< phase (i)
  double store_ms = 0.0;    ///< phase (ii)
  double eval_ms = 0.0;     ///< phase (iii)
  size_t xpath_queries = 0;    ///< pushdown plan steps (wire name kept)
  size_t expanded_terms = 0;   ///< total SEO expansion fan-out
  size_t candidate_docs = 0;   ///< documents surviving phase (ii)
  size_t result_trees = 0;
  size_t prepared_cache_hits = 0;  ///< phase (i) rewrites served from cache
  /// Which join engine evaluated phase (iii): 0 = not a join, 1 = pairwise
  /// product, 2 = structural twig join. Surfaced in the request flight
  /// recorder so fallbacks are visible per request, not just as a counter.
  int join_engine = 0;

  double TotalMs() const { return rewrite_ms + store_ms + eval_ms; }
};

/// Per-request execution knobs. Everything here is scoped to one query
/// call, so concurrent queries on one executor never observe each other's
/// settings.
struct QueryOptions {
  /// Phase (iii) fan-out width (1 = inline). The pool is shared: when
  /// another query holds it, this query's loops run inline instead --
  /// answers are identical either way.
  size_t parallelism = 1;

  /// Checked between phases and once per document inside the eval loops;
  /// a fired token aborts with Cancelled / DeadlineExceeded and whatever
  /// stats accumulated so far. Null = never cancelled. Caller-owned.
  const CancelToken* cancel = nullptr;

  /// Phase (i) memo (see PreparedQueryCache). Null = rewrite every time.
  /// Caller-owned; the owner must Clear() it when the SEO changes.
  PreparedQueryCache* prepared = nullptr;
};

class QueryExecutor {
 public:
  /// `seo == nullptr` selects the TAX baseline. `types` may be null only
  /// when `seo` is null. All pointers must outlive the executor.
  ///
  /// Construction freezes the shared read-only state: the SEO and
  /// type-system reachability caches are warmed here, so queries -- from
  /// any number of threads -- only ever read them.
  QueryExecutor(const store::Database* db, const Seo* seo,
                const TypeSystem* types);

  // --- The per-request entry points ----------------------------------------
  //
  // service::TossService routes every QueryRequest through these. `parent`
  // (optional) attaches the per-phase trace spans to a caller-owned trace
  // (EXPLAIN ANALYZE is: pass a root span, render trace->Pretty()); a null
  // parent disables every span for the cost of one branch.

  /// sigma_{P,SL} over one collection.
  Result<tax::TreeCollection> Select(const std::string& collection,
                                     const tax::PatternTree& pattern,
                                     const std::vector<int>& sl,
                                     const QueryOptions& options,
                                     ExecStats* stats = nullptr,
                                     obs::Span* parent = nullptr) const;

  /// pi_{P,PL} over one collection.
  Result<tax::TreeCollection> Project(const std::string& collection,
                                      const tax::PatternTree& pattern,
                                      const std::vector<tax::ProjectItem>& pl,
                                      const QueryOptions& options,
                                      ExecStats* stats = nullptr,
                                      obs::Span* parent = nullptr) const;

  /// Grouping over one collection: witness trees of `pattern` partitioned
  /// by the content of the `group_label` node (tax::GroupBy).
  Result<tax::TreeCollection> GroupBy(const std::string& collection,
                                      const tax::PatternTree& pattern,
                                      int group_label,
                                      const std::vector<int>& sl,
                                      const QueryOptions& options,
                                      ExecStats* stats = nullptr,
                                      obs::Span* parent = nullptr) const;

  /// Join of two collections: a selection over the product of the live
  /// documents of `left` and `right` (paper Examples 6 and 13), so any
  /// pattern node may map into either document of a pair. `pattern`'s root
  /// (the product root, tag tax_prod_root) must have two child subtrees.
  Result<tax::TreeCollection> Join(const std::string& left,
                                   const std::string& right,
                                   const tax::PatternTree& pattern,
                                   const std::vector<int>& sl,
                                   const QueryOptions& options,
                                   ExecStats* stats = nullptr,
                                   obs::Span* parent = nullptr) const;

  /// The semantics in effect (TaxSemantics or SeoSemantics).
  const tax::ConditionSemantics& semantics() const;

  bool is_toss() const { return seo_ != nullptr; }

  /// Phase (i) in isolation: the pushdown plan for `pattern`, one step per
  /// labelled node with a concrete tag. Exposed for tests and the
  /// rewrite-cost ablation bench.
  Result<store::PushdownPlan> RewriteToPlan(const tax::PatternTree& pattern,
                                            size_t* expanded_terms) const;

  /// EXPLAIN: a human-readable account of how a selection over
  /// `collection` runs -- the plan's steps in execution order (rendered
  /// //tag[...], SEO term expansions inlined), how many candidates are
  /// left after each step's postings and how many were checked element by
  /// element, and the final candidate set size. Runs phases (i) and (ii)
  /// through the same code as a query, but not (iii).
  Result<std::string> Explain(const std::string& collection,
                              const tax::PatternTree& pattern) const;

 private:
  /// What phase (ii) ran, for Explain.
  struct PlanTrace {
    store::PushdownPlan plan;
    std::vector<store::PlanStepStats> steps;
  };

  /// Phase (i): the plan, served from `options.prepared` when possible.
  Result<std::shared_ptr<const PreparedRewrite>> Rewrite(
      const tax::PatternTree& pattern, const QueryOptions& options,
      ExecStats* stats, obs::Span* parent) const;

  /// Phases (i) + (ii) of a selection: the documents that match every step
  /// of the plan. `trace` (optional) receives the plan and its per-step
  /// costs.
  Result<std::vector<store::DocId>> CandidateDocs(
      const store::Collection& coll, const tax::PatternTree& pattern,
      const QueryOptions& options, ExecStats* stats, obs::Span* parent,
      PlanTrace* trace = nullptr) const;

  /// Select, Project and GroupBy over `collection`: phases (i) + (ii), then
  /// phase (iii) -- `eval(tree, plan, semantics)` on each candidate
  /// document's decoded tree, through RunPerDoc -- and `assemble` of the
  /// per-document Parts in document order.
  template <typename Part, typename Eval, typename Assemble>
  Result<tax::TreeCollection> EvalPerDoc(const std::string& collection,
                                         const tax::PatternTree& pattern,
                                         const QueryOptions& options,
                                         ExecStats* stats, obs::Span* parent,
                                         const Eval& eval,
                                         const Assemble& assemble) const;

  /// Runs fn(0) .. fn(n-1) with a per-index cancellation check -- over the
  /// shared worker pool when `options.parallelism` and `n` warrant it AND
  /// the pool is free (one fan-out at a time; concurrent queries fall back
  /// to the inline loop). Returns the first error; the pool aborts
  /// remaining work on failure.
  Status RunPerDoc(size_t n, const std::function<Status(size_t)>& fn,
                   const QueryOptions& options) const;

  const store::Database* db_;
  const Seo* seo_;
  const TypeSystem* types_;
  tax::TaxSemantics tax_semantics_;
  SeoSemantics seo_semantics_;
  // The shared pool. pool_mu_ doubles as the fan-out claim: RunPerDoc
  // try-locks it, and only the holder touches pool_ (rebuilt when the
  // requested width changes).
  mutable std::mutex pool_mu_;
  mutable std::unique_ptr<WorkerPool> pool_;  ///< guarded by pool_mu_
};

}  // namespace toss::core

#endif  // TOSS_CORE_QUERY_EXECUTOR_H_
