#include "core/query_executor.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "tax/twig_join.h"

namespace toss::core {

using tax::CondOp;
using tax::Condition;
using tax::CondTerm;
using tax::PatternTree;

namespace {

/// Always-on executor metrics (per-phase latency, candidate/pruning/result
/// counters). One registration, cached for the life of the process.
struct QueryMetrics {
  obs::Counter& selects = obs::Metrics().GetCounter("core.query.select.count");
  obs::Counter& projects =
      obs::Metrics().GetCounter("core.query.project.count");
  obs::Counter& groupbys =
      obs::Metrics().GetCounter("core.query.groupby.count");
  obs::Counter& joins = obs::Metrics().GetCounter("core.query.join.count");
  obs::Counter& xpath_queries =
      obs::Metrics().GetCounter("core.query.xpath_queries");
  obs::Counter& expanded_terms =
      obs::Metrics().GetCounter("core.query.expanded_terms");
  obs::Counter& candidate_docs =
      obs::Metrics().GetCounter("core.query.candidate_docs");
  obs::Counter& result_trees =
      obs::Metrics().GetCounter("core.query.result_trees");
  obs::Histogram& rewrite_ns =
      obs::Metrics().GetHistogram("core.query.rewrite_latency_ns");
  obs::Histogram& store_ns =
      obs::Metrics().GetHistogram("core.query.store_latency_ns");
  obs::Histogram& eval_ns =
      obs::Metrics().GetHistogram("core.query.eval_latency_ns");
  // Structural-join engine counters (see tax::TwigJoinStats).
  obs::Counter& twig_joins =
      obs::Metrics().GetCounter("core.query.join.twig.count");
  obs::Counter& twig_fallbacks =
      obs::Metrics().GetCounter("core.query.join.twig.fallbacks");
  obs::Counter& twig_postings =
      obs::Metrics().GetCounter("core.query.join.twig.postings_built");
  obs::Counter& twig_advances =
      obs::Metrics().GetCounter("core.query.join.twig.stream_advances");
  obs::Counter& twig_pushes =
      obs::Metrics().GetCounter("core.query.join.twig.stack_pushes");
  obs::Counter& twig_pruned =
      obs::Metrics().GetCounter("core.query.join.twig.pruned_subtrees");
  obs::Counter& twig_pairs =
      obs::Metrics().GetCounter("core.query.join.twig.pairs_scanned");
  obs::Counter& twig_combos =
      obs::Metrics().GetCounter("core.query.join.twig.combos_emitted");
  obs::Counter& twig_value_skips =
      obs::Metrics().GetCounter("core.query.join.twig.pairs_value_skipped");
};

QueryMetrics& Instruments() {
  static QueryMetrics* m = new QueryMetrics();
  return *m;
}

/// Annotates `span` with the decoded-tree cache activity between the two
/// stat snapshots. No-op for disabled spans.
void AnnotateCacheDelta(obs::Span* span,
                        const store::Collection::TreeCacheStats& before,
                        const store::Collection::TreeCacheStats& after) {
  if (span == nullptr || !span->enabled()) return;
  span->Annotate("tree_cache_hits",
                 static_cast<uint64_t>(after.hits - before.hits));
  span->Annotate("tree_cache_misses",
                 static_cast<uint64_t>(after.misses - before.misses));
}

/// Memoizing tax::SimilarOracle over Seo::Similar. Per distinct term, the
/// ontology lookup, lowercase form, and similarity signature are computed
/// once and shared across every pair comparison (and worker thread) of one
/// join -- the structural merge compares the same handful of terms
/// quadratically often. The verdict reproduces Seo::Similar exactly:
///   raw equality -> enhanced-isa co-membership when BOTH terms are in the
///   ontology (no fallthrough) -> measure fallback
///   d(lower(x), lower(y)) <= epsilon.
/// The signature prefilter only skips BoundedDistance calls whose result
/// provably exceeds epsilon (SignatureLowerBound never exceeds the true
/// distance, and BoundedDistance is contractually > bound there), so it
/// cannot change the verdict.
class SeoSimilarOracle final : public tax::SimilarOracle {
 public:
  explicit SeoSimilarOracle(const Seo* seo)
      : seo_(seo), epsilon_(seo->epsilon()), has_measure_(seo->has_measure()) {
    if (has_measure_) {
      sim::StringSignature probe;
      signatures_ = seo_->measure().ComputeSignature("", &probe);
    }
  }

  bool Similar(const std::string& x, const std::string& y) const override {
    if (x == y) return true;
    return SimilarPrepared(Prep(x), Prep(y));
  }

  /// Id-keyed variant: equal valid ids short-circuit, and the per-term
  /// memo is probed by SymbolId (u32 hash) instead of hashing the text.
  /// Terms without a known id are interned on first sight, so later pairs
  /// of the same join hit the id-keyed memo too.
  bool SimilarSym(SymbolId sx, const std::string& x, SymbolId sy,
                  const std::string& y) const override {
    if (sx != kInvalidSymbol && sx == sy) return true;
    if (x == y) return true;
    return SimilarPrepared(PrepSym(sx, x), PrepSym(sy, y));
  }

  /// Bucket contract for tax::TwigValueFilter: a term's buckets are its
  /// enhanced-isa node ids. Two in-ontology terms are Similar iff they
  /// share a node (Seo::Similar's definition, no fallthrough); a term
  /// outside the ontology has no buckets and is "free" -- the filter then
  /// routes its pairs through SimilarSym, which applies the measure
  /// fallback exactly as Similar would.
  std::vector<uint64_t> CompatBuckets(
      const std::string& term) const override {
    const Prepared& p = Prep(term);
    std::vector<uint64_t> out;
    out.reserve(p.nodes.size());
    for (ontology::HNodeId id : p.nodes) {
      out.push_back(static_cast<uint64_t>(id));
    }
    return out;
  }

 private:
  struct Prepared;

  bool SimilarPrepared(const Prepared& px, const Prepared& py) const {
    if (!px.nodes.empty() && !py.nodes.empty()) {
      // Both terms are in the ontology: similar iff some enhanced-isa node
      // contains both (sorted-vector intersection).
      auto a = px.nodes.begin();
      auto b = py.nodes.begin();
      while (a != px.nodes.end() && b != py.nodes.end()) {
        if (*a == *b) return true;
        if (*a < *b) {
          ++a;
        } else {
          ++b;
        }
      }
      return false;
    }
    if (!has_measure_) return false;
    if (px.has_sig && py.has_sig &&
        seo_->measure().SignatureLowerBound(px.sig, py.sig) > epsilon_) {
      return false;
    }
    return seo_->measure().BoundedDistance(px.lowered, py.lowered, epsilon_) <=
           epsilon_;
  }

  struct Prepared {
    std::vector<ontology::HNodeId> nodes;  // sorted ascending
    std::string lowered;
    sim::StringSignature sig;
    bool has_sig = false;
  };

  Prepared* Materialize(const std::string& term) const {
    store_.push_back(std::make_unique<Prepared>());
    Prepared* p = store_.back().get();
    p->nodes = seo_->SimilarityNodes(term);
    std::sort(p->nodes.begin(), p->nodes.end());
    p->lowered = ToLower(term);
    if (signatures_) {
      p->has_sig = seo_->measure().ComputeSignature(p->lowered, &p->sig);
    }
    return p;
  }

  const Prepared& Prep(const std::string& term) const {
    {
      std::shared_lock<std::shared_mutex> read(mu_);
      auto it = cache_.find(term);
      if (it != cache_.end()) return *it->second;
    }
    std::unique_lock<std::shared_mutex> write(mu_);
    Prepared*& slot = cache_[term];
    if (slot == nullptr) slot = Materialize(term);
    return *slot;
  }

  /// Prep keyed by interned id. An unknown id is resolved by interning the
  /// term (its id is then stable for the rest of the process); dictionary
  /// overflow degrades to the string-keyed memo.
  const Prepared& PrepSym(SymbolId sym, const std::string& term) const {
    if (sym == kInvalidSymbol) {
      sym = Interner::Global().Intern(term);
      if (sym == kInvalidSymbol) return Prep(term);
    }
    {
      std::shared_lock<std::shared_mutex> read(mu_);
      auto it = sym_cache_.find(sym);
      if (it != sym_cache_.end()) return *it->second;
    }
    std::unique_lock<std::shared_mutex> write(mu_);
    Prepared*& slot = sym_cache_[sym];
    if (slot == nullptr) slot = Materialize(term);
    return *slot;
  }

  const Seo* seo_;
  const double epsilon_;
  const bool has_measure_;
  bool signatures_ = false;
  mutable std::shared_mutex mu_;
  mutable std::unordered_map<std::string, Prepared*> cache_;
  mutable std::unordered_map<SymbolId, Prepared*> sym_cache_;
  mutable std::deque<std::unique_ptr<Prepared>> store_;  // pointer stability
};

/// Single-label atoms in conjunctive context, grouped by label (the only
/// conditions that can be pushed down to the store).
void CollectPushdownAtoms(
    const Condition& c,
    std::map<int, std::vector<const Condition*>>* by_label) {
  if (c.kind == Condition::Kind::kAnd) {
    for (const auto& child : c.children) {
      CollectPushdownAtoms(*child, by_label);
    }
    return;
  }
  if (c.kind != Condition::Kind::kAtom) return;
  auto labels = c.ReferencedLabels();
  if (labels.size() == 1) (*by_label)[labels[0]].push_back(&c);
}

/// True when the atom is `$n.tag = "literal"` with a concrete literal.
bool TagEquality(const Condition& atom, std::string* tag) {
  if (atom.op != CondOp::kEq) return false;
  const CondTerm *node = nullptr, *lit = nullptr;
  if (atom.lhs.kind == CondTerm::Kind::kNodeTag &&
      atom.rhs.kind == CondTerm::Kind::kTypedValue) {
    node = &atom.lhs;
    lit = &atom.rhs;
  } else if (atom.rhs.kind == CondTerm::Kind::kNodeTag &&
             atom.lhs.kind == CondTerm::Kind::kTypedValue) {
    node = &atom.rhs;
    lit = &atom.lhs;
  } else {
    return false;
  }
  (void)node;
  if (Contains(lit->text, "*")) return false;
  *tag = lit->text;
  return true;
}

/// True when the atom constrains `$n.content` against a literal with one of
/// the expandable operators; extracts operator and literal, normalized so
/// the node attribute is conceptually on the LEFT (ordering operators are
/// flipped for `literal op $n.content` forms; non-symmetric ontology
/// operators in reversed form are not pushdown-safe and are rejected).
/// Ordering atoms with an explicitly *typed* literal ("2000":year) are
/// rejected too: their evaluation goes through conversion functions and may
/// legitimately raise TypeError, which index pruning must not swallow.
bool ContentAtom(const Condition& atom, CondOp* op, std::string* literal) {
  const CondTerm* lit = nullptr;
  bool reversed = false;
  if (atom.lhs.kind == CondTerm::Kind::kNodeContent &&
      atom.rhs.kind == CondTerm::Kind::kTypedValue) {
    lit = &atom.rhs;
  } else if (atom.rhs.kind == CondTerm::Kind::kNodeContent &&
             atom.lhs.kind == CondTerm::Kind::kTypedValue) {
    lit = &atom.lhs;
    reversed = true;
  } else {
    return false;
  }
  *op = atom.op;
  if (reversed) {
    switch (atom.op) {
      case CondOp::kEq:
      case CondOp::kNeq:
      case CondOp::kSimilar:
        break;  // symmetric
      case CondOp::kLt:
        *op = CondOp::kGt;
        break;
      case CondOp::kLeq:
        *op = CondOp::kGeq;
        break;
      case CondOp::kGt:
        *op = CondOp::kLt;
        break;
      case CondOp::kGeq:
        *op = CondOp::kLeq;
        break;
      default:
        return false;  // isa / part_of / below etc. are not symmetric
    }
  }
  switch (*op) {
    case CondOp::kLt:
    case CondOp::kLeq:
    case CondOp::kGt:
    case CondOp::kGeq:
      if (!lit->value_type.empty() && lit->value_type != "string") {
        return false;  // typed ordering: eval-only (see doc comment)
      }
      break;
    default:
      break;
  }
  *literal = lit->text;
  return true;
}

/// The candidates of one join operand. A join selects over the product of
/// the two collections, and any pattern node may map into either document
/// of a pair, so a document is dropped only when no node can map into it:
/// when every node has a plan step and the document matches none of them.
/// Each witness of its pairs then lies in the other document (and the
/// product root), so the same pairs with the operand's first document --
/// always kept -- emitted it first. A root in the selection list copies
/// whole pairs, so then every document shows in some witness and all are
/// kept. `total_docs` and `scanned_docs` of `stats` are filled in.
std::vector<store::DocId> OperandDocs(const store::Collection& coll,
                                      const store::PushdownPlan& plan,
                                      const PatternTree& pattern,
                                      const std::set<int>& expand,
                                      store::QueryStats* stats) {
  std::vector<store::DocId> docs = coll.AllDocs();
  stats->total_docs = docs.size();
  if (docs.empty() || plan.size() < pattern.node_count() ||
      expand.count(pattern.node(0).label) > 0) {
    return docs;
  }
  std::vector<bool> keep(docs.back() + 1, false);
  keep[docs.front()] = true;
  for (const store::PlanStep& step : plan) {
    store::QueryStats step_stats;
    for (store::DocId id : coll.PlanDocs({step}, &step_stats)) keep[id] = true;
    stats->scanned_docs += step_stats.scanned_docs;
  }
  std::erase_if(docs, [&](store::DocId id) { return !keep[id]; });
  return docs;
}

/// Phase (ii) under a "store_scan" span below `parent`: `scan` answers
/// `plan` in the store, filling the QueryStats it is given. Records the
/// store metrics and adds the scan to `stats` (optional).
template <typename Scan>
std::vector<store::DocId> StoreScan(const store::PushdownPlan& plan,
                                    ExecStats* stats, obs::Span* parent,
                                    Scan&& scan) {
  QueryMetrics& m = Instruments();
  Timer timer;
  obs::Span store_span(parent, "store_scan");
  store::QueryStats qstats;
  std::vector<store::DocId> docs = scan(&qstats);
  if (store_span.enabled()) {
    store_span.Annotate("candidate_docs", static_cast<uint64_t>(docs.size()));
    store_span.Annotate("docs_scanned",
                        static_cast<uint64_t>(qstats.scanned_docs));
    store_span.Annotate("docs_total", static_cast<uint64_t>(qstats.total_docs));
    store_span.Annotate("index_used", plan.empty() ? "false" : "true");
    const size_t scan_budget = qstats.total_docs * plan.size();
    if (scan_budget > 0) {
      // Fraction of the naive per-step element checks the indexes saved.
      store_span.Annotate(
          "index_pruning_ratio",
          1.0 - static_cast<double>(qstats.scanned_docs) /
                    static_cast<double>(scan_budget));
    }
  }
  store_span.End();
  m.store_ns.Record(static_cast<uint64_t>(timer.ElapsedNanos()));
  m.candidate_docs.Add(docs.size());
  if (stats != nullptr) {
    stats->store_ms += timer.ElapsedMillis();
    stats->candidate_docs += docs.size();
  }
  return docs;
}

/// The plan order an ordering atom pushes down as.
store::PlanStep::Order ToOrder(CondOp op) {
  switch (op) {
    case CondOp::kLt:
      return store::PlanStep::Order::kLt;
    case CondOp::kLeq:
      return store::PlanStep::Order::kLeq;
    case CondOp::kGt:
      return store::PlanStep::Order::kGt;
    default:
      return store::PlanStep::Order::kGeq;
  }
}

}  // namespace

QueryExecutor::QueryExecutor(const store::Database* db, const Seo* seo,
                             const TypeSystem* types)
    : db_(db), seo_(seo), types_(types), seo_semantics_(seo, types) {
  // Freeze the shared read-only state up front: reachability closures are
  // built lazily on first use, so warming here means concurrent queries
  // only ever read them.
  if (seo_ != nullptr) seo_->WarmCaches();
  if (types_ != nullptr) types_->WarmCaches();
}

Status QueryExecutor::RunPerDoc(size_t n,
                                const std::function<Status(size_t)>& fn,
                                const QueryOptions& options) const {
  const CancelToken* cancel = options.cancel;
  auto task = [&fn, cancel](size_t i) -> Status {
    TOSS_RETURN_NOT_OK(CheckCancel(cancel));
    return fn(i);
  };
  if (options.parallelism > 1 && n >= 2) {
    // One fan-out at a time: the query that claims the pool parallelizes,
    // concurrent ones run inline rather than queueing behind it.
    std::unique_lock<std::mutex> claim(pool_mu_, std::try_to_lock);
    if (claim.owns_lock()) {
      if (pool_ == nullptr || pool_->thread_count() != options.parallelism) {
        pool_ = std::make_unique<WorkerPool>(options.parallelism);
      }
      return pool_->ParallelFor(n, task);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    TOSS_RETURN_NOT_OK(task(i));
  }
  return Status::OK();
}

const tax::ConditionSemantics& QueryExecutor::semantics() const {
  if (seo_ != nullptr) return seo_semantics_;
  return tax_semantics_;
}

Result<store::PushdownPlan> QueryExecutor::RewriteToPlan(
    const PatternTree& pattern, size_t* expanded_terms) const {
  TOSS_RETURN_NOT_OK(pattern.Validate());
  std::map<int, std::vector<const Condition*>> atoms;
  CollectPushdownAtoms(pattern.condition(), &atoms);

  store::PushdownPlan plan;
  for (const auto& [label, conds] : atoms) {
    // A pushdown step needs a concrete tag to anchor on.
    store::PlanStep step;
    bool has_tag = false;
    for (const Condition* atom : conds) {
      if (TagEquality(*atom, &step.tag)) {
        has_tag = true;
        break;
      }
    }
    if (!has_tag) continue;

    for (const Condition* atom : conds) {
      CondOp op;
      std::string literal;
      if (!ContentAtom(*atom, &op, &literal)) continue;
      switch (op) {
        case CondOp::kEq: {
          // "*X*" wildcards push down as containment; other wildcard shapes
          // stay eval-only.
          if (literal.size() > 2 && literal.front() == '*' &&
              literal.back() == '*' &&
              literal.find('*', 1) == literal.size() - 1) {
            step.contains.push_back(literal.substr(1, literal.size() - 2));
          } else if (!Contains(literal, "*")) {
            step.any_of.push_back({literal});
          }
          break;
        }
        case CondOp::kSimilar:
        case CondOp::kIsa:
        case CondOp::kPartOf:
        case CondOp::kBelow: {
          if (seo_ == nullptr) {
            // TAX baseline: ~ is exact equality. The ontology operators
            // degrade to case-insensitive containment in either direction
            // (TaxSemantics::Related), which no posting bounds: they stay
            // eval-only.
            if (op == CondOp::kSimilar) step.any_of.push_back({literal});
            break;
          }
          // TOSS: expand the literal through the SEO into an any-of group
          // of concrete terms.
          std::vector<std::string> terms;
          if (op == CondOp::kSimilar) {
            terms = seo_->SimilarTerms(literal);
          } else {
            const char* rel =
                (op == CondOp::kPartOf) ? ontology::kPartOf : ontology::kIsa;
            terms = seo_->TermsBelow(rel, literal);
          }
          if (expanded_terms != nullptr) *expanded_terms += terms.size();
          step.any_of.push_back(std::move(terms));
          break;
        }
        case CondOp::kLt:
        case CondOp::kLeq:
        case CondOp::kGt:
        case CondOp::kGeq:
          // Ordering atoms push down as they are: the store checks them
          // with the same CompareScalar order, and its ordered indexes
          // turn them into range scans.
          if (!Contains(literal, "*")) {
            step.bounds.push_back({ToOrder(op), literal});
          }
          break;
        default:
          break;  // other operators stay eval-only
      }
    }
    plan.push_back(std::move(step));
  }
  return plan;
}

Result<std::string> QueryExecutor::Explain(
    const std::string& collection, const PatternTree& pattern) const {
  TOSS_ASSIGN_OR_RETURN(const store::Collection* coll,
                        db_->GetCollection(collection));
  ExecStats stats;
  PlanTrace trace;
  TOSS_ASSIGN_OR_RETURN(
      std::vector<store::DocId> docs,
      CandidateDocs(*coll, pattern, QueryOptions{}, &stats, nullptr, &trace));
  std::string out;
  out += "system: ";
  out += (seo_ != nullptr ? "TOSS (SEO epsilon=" +
                                std::to_string(seo_->epsilon()) + ")"
                          : "TAX (exact baseline)");
  out += "\ncollection: " + collection + " (" +
         std::to_string(coll->AllDocs().size()) +
         " documents)\n";
  out += "condition: " + pattern.condition().ToString() + "\n";
  out += "expanded terms: " + std::to_string(stats.expanded_terms) + "\n";
  if (trace.plan.empty()) {
    out += "no pushdown steps: full collection scan\n";
    return out;
  }
  for (const store::PlanStepStats& step : trace.steps) {
    out += "step: " + trace.plan[step.step].ToString() + "\n";
    out += "  -> " + std::to_string(step.candidates) +
           " documents after its postings" +
           (step.checked_docs == 0 ? " (exact)"
                       : ", " + std::to_string(step.checked_docs) +
                             " checked element by element") +
           "\n";
  }
  out += "candidates after intersection: " + std::to_string(docs.size()) +
         "\n";
  return out;
}

Result<std::shared_ptr<const PreparedRewrite>> QueryExecutor::Rewrite(
    const PatternTree& pattern, const QueryOptions& options, ExecStats* stats,
    obs::Span* parent) const {
  QueryMetrics& m = Instruments();
  Timer timer;
  obs::Span rewrite_span(parent, "rewrite");
  // Phase (i), served from the prepared-query cache when the caller
  // provided one. A hit reports the memoized expansion fan-out, so stats
  // are identical whether the rewrite ran or was recalled.
  std::shared_ptr<const PreparedRewrite> rewrite;
  std::string cache_key;
  if (options.prepared != nullptr) {
    cache_key = CanonicalPatternKey(pattern);
    rewrite = options.prepared->Lookup(cache_key);
    if (rewrite != nullptr) {
      TOSS_RETURN_NOT_OK(pattern.Validate());
    }
  }
  const bool cache_hit = rewrite != nullptr;
  if (!cache_hit) {
    auto fresh = std::make_shared<PreparedRewrite>();
    TOSS_ASSIGN_OR_RETURN(
        fresh->plan, RewriteToPlan(pattern, &fresh->expanded_terms));
    rewrite = std::move(fresh);
    if (options.prepared != nullptr) {
      options.prepared->Insert(cache_key, rewrite);
    }
  }
  const size_t steps = rewrite->plan.size();
  const size_t expanded = rewrite->expanded_terms;
  rewrite_span.Annotate("xpath_queries", static_cast<uint64_t>(steps));
  rewrite_span.Annotate("expanded_terms", static_cast<uint64_t>(expanded));
  if (options.prepared != nullptr && rewrite_span.enabled()) {
    rewrite_span.Annotate("prepared_cache", cache_hit ? "hit" : "miss");
  }
  rewrite_span.End();
  m.rewrite_ns.Record(static_cast<uint64_t>(timer.ElapsedNanos()));
  m.xpath_queries.Add(steps);
  m.expanded_terms.Add(expanded);
  if (stats != nullptr) {
    stats->rewrite_ms += timer.ElapsedMillis();
    stats->xpath_queries += steps;
    stats->expanded_terms += expanded;
    stats->prepared_cache_hits += cache_hit ? 1 : 0;
  }
  return rewrite;
}

Result<std::vector<store::DocId>> QueryExecutor::CandidateDocs(
    const store::Collection& coll, const PatternTree& pattern,
    const QueryOptions& options, ExecStats* stats, obs::Span* parent,
    PlanTrace* trace) const {
  TOSS_RETURN_NOT_OK(CheckCancel(options.cancel));
  TOSS_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedRewrite> rewrite,
                        Rewrite(pattern, options, stats, parent));
  const store::PushdownPlan& plan = rewrite->plan;
  TOSS_RETURN_NOT_OK(CheckCancel(options.cancel));
  if (trace != nullptr) trace->plan = plan;
  return StoreScan(plan, stats, parent, [&](store::QueryStats* qstats) {
    return coll.PlanDocs(plan, qstats,
                         trace != nullptr ? &trace->steps : nullptr);
  });
}

template <typename Part, typename Eval, typename Assemble>
Result<tax::TreeCollection> QueryExecutor::EvalPerDoc(
    const std::string& collection, const PatternTree& pattern,
    const QueryOptions& options, ExecStats* stats, obs::Span* parent,
    const Eval& eval, const Assemble& assemble) const {
  QueryMetrics& m = Instruments();
  TOSS_ASSIGN_OR_RETURN(const store::Collection* coll,
                        db_->GetCollection(collection));
  TOSS_ASSIGN_OR_RETURN(
      std::vector<store::DocId> docs,
      CandidateDocs(*coll, pattern, options, stats, parent));
  TOSS_ASSIGN_OR_RETURN(const tax::EmbeddingPlan plan,
                        tax::EmbeddingPlan::Build(pattern));
  Timer timer;
  obs::Span eval_span(parent, "eval");
  const store::Collection::TreeCacheStats cache_before =
      eval_span.enabled() ? coll->GetTreeCacheStats()
                          : store::Collection::TreeCacheStats{};
  const tax::ConditionSemantics& sem = semantics();
  // Per-document parts keep the merge order deterministic regardless of
  // which worker finishes first.
  std::vector<Part> parts(docs.size());
  TOSS_RETURN_NOT_OK(RunPerDoc(
      docs.size(),
      [&](size_t i) -> Status {
        std::shared_ptr<const tax::DataTree> tree = coll->DecodedTree(docs[i]);
        TOSS_ASSIGN_OR_RETURN(parts[i], eval(*tree, plan, sem));
        return Status::OK();
      },
      options));
  tax::TreeCollection result = assemble(std::move(parts));
  if (eval_span.enabled()) {
    eval_span.Annotate("docs_evaluated", static_cast<uint64_t>(docs.size()));
    eval_span.Annotate("result_trees", static_cast<uint64_t>(result.size()));
    AnnotateCacheDelta(&eval_span, cache_before, coll->GetTreeCacheStats());
  }
  eval_span.End();
  m.eval_ns.Record(static_cast<uint64_t>(timer.ElapsedNanos()));
  m.result_trees.Add(result.size());
  if (stats != nullptr) {
    stats->eval_ms += timer.ElapsedMillis();
    stats->result_trees += result.size();
  }
  return result;
}

Result<tax::TreeCollection> QueryExecutor::Select(
    const std::string& collection, const PatternTree& pattern,
    const std::vector<int>& sl, const QueryOptions& options, ExecStats* stats,
    obs::Span* parent) const {
  Instruments().selects.Increment();
  const std::set<int> expand(sl.begin(), sl.end());
  return EvalPerDoc<tax::TreeCollection>(
      collection, pattern, options, stats, parent,
      [&](const auto& tree, const auto& plan, const auto& sem) {
        return tax::SelectTree(tree, plan, expand, sem);
      },
      tax::MergeDedup);
}

Result<tax::TreeCollection> QueryExecutor::Project(
    const std::string& collection, const PatternTree& pattern,
    const std::vector<tax::ProjectItem>& pl, const QueryOptions& options,
    ExecStats* stats, obs::Span* parent) const {
  Instruments().projects.Increment();
  return EvalPerDoc<tax::TreeCollection>(
      collection, pattern, options, stats, parent,
      [&](const auto& tree, const auto& plan, const auto& sem) {
        return tax::ProjectTree(tree, plan, pl, sem);
      },
      tax::MergeDedup);
}

Result<tax::TreeCollection> QueryExecutor::GroupBy(
    const std::string& collection, const PatternTree& pattern,
    int group_label, const std::vector<int>& sl, const QueryOptions& options,
    ExecStats* stats, obs::Span* parent) const {
  Instruments().groupbys.Increment();
  if (pattern.IndexOfLabel(group_label) < 0) {
    return Status::InvalidArgument("GroupBy: label $" +
                                   std::to_string(group_label) +
                                   " is not a pattern node");
  }
  const std::set<int> expand(sl.begin(), sl.end());
  return EvalPerDoc<std::vector<tax::GroupedWitness>>(
      collection, pattern, options, stats, parent,
      [&](const auto& tree, const auto& plan, const auto& sem) {
        return tax::GroupByTree(tree, plan, group_label, expand, sem);
      },
      tax::AssembleGroups);
}

Result<tax::TreeCollection> QueryExecutor::Join(
    const std::string& left, const std::string& right,
    const PatternTree& pattern, const std::vector<int>& sl,
    const QueryOptions& options, ExecStats* stats, obs::Span* parent) const {
  QueryMetrics& m = Instruments();
  m.joins.Increment();
  TOSS_RETURN_NOT_OK(pattern.Validate());
  if (pattern.node(0).children.size() < 2) {
    return Status::InvalidArgument(
        "Join pattern root must have two subtrees (left and right operand)");
  }
  TOSS_ASSIGN_OR_RETURN(const store::Collection* lcoll,
                        db_->GetCollection(left));
  TOSS_ASSIGN_OR_RETURN(const store::Collection* rcoll,
                        db_->GetCollection(right));

  // Both operands use the one plan of the whole pattern; its rewrite sits
  // under candidates_left.
  const std::set<int> expand(sl.begin(), sl.end());
  std::shared_ptr<const PreparedRewrite> rewrite;
  auto operand_docs = [&](const store::Collection& coll, obs::Span* span) {
    return StoreScan(rewrite->plan, stats, span, [&](store::QueryStats* q) {
      return OperandDocs(coll, rewrite->plan, pattern, expand, q);
    });
  };
  std::vector<store::DocId> ldocs, rdocs;
  {
    obs::Span lspan(parent, "candidates_left");
    TOSS_RETURN_NOT_OK(CheckCancel(options.cancel));
    TOSS_ASSIGN_OR_RETURN(rewrite, Rewrite(pattern, options, stats, &lspan));
    TOSS_RETURN_NOT_OK(CheckCancel(options.cancel));
    ldocs = operand_docs(*lcoll, &lspan);
  }
  {
    obs::Span rspan(parent, "candidates_right");
    TOSS_RETURN_NOT_OK(CheckCancel(options.cancel));
    rdocs = operand_docs(*rcoll, &rspan);
  }

  Timer timer;
  const tax::ConditionSemantics& sem = semantics();

  // Plan the structural (twig) join. Any document outside the engine's
  // envelope (posting-list blowup) downgrades to the classic pairwise
  // product path below; answers are byte-identical either way. (Plan
  // rejects only patterns validated away above.)
  std::unique_ptr<tax::SimilarOracle> oracle;
  if (seo_ != nullptr) {
    oracle = std::make_unique<SeoSimilarOracle>(seo_);
  } else {
    oracle = std::make_unique<tax::ExactSimilarOracle>();
  }
  std::unique_ptr<tax::TwigJoiner> joiner =
      tax::TwigJoiner::Plan(pattern, expand, sem, oracle.get());
  bool use_twig = joiner != nullptr;
  tax::TwigJoinStats tstats;
  std::vector<tax::TwigDoc> rtwig, ltwig;
  std::vector<char> lskip(ldocs.size(), 0), rskip(rdocs.size(), 0);
  uint64_t docs_pruned = 0;
  if (use_twig) {
    // Document-level pruning: when every pattern subtree is tag-pinned, a
    // doc carrying none of those tags (and no wildcard tag) can contribute
    // neither postings nor in-side embeddings -- skip decoding it entirely.
    const auto prune_filters = joiner->PruneFilterIds();
    if (!prune_filters.empty()) {
      auto mark = [&](const store::Collection& coll,
                      const std::vector<store::DocId>& docs,
                      std::vector<char>* skip) {
        std::set<store::DocId> keep;
        for (const std::vector<SymbolId>& tags : prune_filters) {
          for (store::DocId d : coll.DocsWithAnyTagIds(tags)) keep.insert(d);
        }
        for (store::DocId d : coll.DocsWithWildcardTag()) keep.insert(d);
        for (size_t i = 0; i < docs.size(); ++i) {
          if (keep.count(docs[i]) == 0) {
            (*skip)[i] = 1;
            ++docs_pruned;
          }
        }
      };
      mark(*lcoll, ldocs, &lskip);
      mark(*rcoll, rdocs, &rskip);
    }
  }

  // Decode the right side once up front (fanned out across the pool); the
  // shared_ptrs keep the trees alive even if the cache evicts them. On the
  // twig path the per-doc posting lists are built in the same pass.
  obs::Span decode_span(parent, "decode_right");
  const store::Collection::TreeCacheStats rcache_before =
      decode_span.enabled() ? rcoll->GetTreeCacheStats()
                            : store::Collection::TreeCacheStats{};
  std::vector<std::shared_ptr<const tax::DataTree>> rtrees(rdocs.size());
  if (use_twig) {
    rtwig.resize(rdocs.size());
    TOSS_RETURN_NOT_OK(RunPerDoc(
        rdocs.size(),
        [&](size_t i) -> Status {
          if (rskip[i]) {
            rtwig[i] = joiner->PrunedDoc();
            return Status::OK();
          }
          rtrees[i] = rcoll->DecodedTree(rdocs[i]);
          TOSS_ASSIGN_OR_RETURN(rtwig[i],
                                joiner->Prepare(rtrees[i], &tstats));
          return Status::OK();
        },
        options));
    for (const auto& d : rtwig) {
      if (!d.supported) {
        use_twig = false;
        break;
      }
    }
  }
  if (!use_twig) {
    TOSS_RETURN_NOT_OK(RunPerDoc(
        rdocs.size(),
        [&](size_t i) -> Status {
          if (rtrees[i] == nullptr) rtrees[i] = rcoll->DecodedTree(rdocs[i]);
          return Status::OK();
        },
        options));
  }
  if (decode_span.enabled()) {
    decode_span.Annotate("right_docs", static_cast<uint64_t>(rdocs.size()));
    AnnotateCacheDelta(&decode_span, rcache_before,
                       rcoll->GetTreeCacheStats());
  }
  decode_span.End();

  obs::Span eval_span(parent, "eval");
  const store::Collection::TreeCacheStats lcache_before =
      eval_span.enabled() ? lcoll->GetTreeCacheStats()
                          : store::Collection::TreeCacheStats{};
  tax::TreeCollection result;
  if (use_twig) {
    // Left side: decode + postings (mirrors the pairwise path, which also
    // decodes left trees inside the eval phase).
    obs::Span postings_span(&eval_span, "twig_postings");
    ltwig.resize(ldocs.size());
    TOSS_RETURN_NOT_OK(RunPerDoc(
        ldocs.size(),
        [&](size_t i) -> Status {
          if (lskip[i]) {
            ltwig[i] = joiner->PrunedDoc();
            return Status::OK();
          }
          TOSS_ASSIGN_OR_RETURN(
              ltwig[i],
              joiner->Prepare(lcoll->DecodedTree(ldocs[i]), &tstats));
          return Status::OK();
        },
        options));
    if (postings_span.enabled()) {
      postings_span.Annotate(
          "postings_built",
          tstats.postings_built.load(std::memory_order_relaxed));
      postings_span.Annotate("docs_pruned", docs_pruned);
    }
    postings_span.End();
    for (const auto& d : ltwig) {
      if (!d.supported) {
        use_twig = false;
        break;
      }
    }
  }
  if (use_twig) {
    // Cross-tree match groups exist only when the product root itself can
    // be a root image: its tag admitted by the root's tag filter and its
    // prefilters true. Both are pair-independent, so they are evaluated
    // once here instead of once per pair (same verdict, same errors -- the
    // pairwise path evaluates them on the first candidate of every pair).
    bool combos =
        !ldocs.empty() && !rdocs.empty() && joiner->root_tag_allowed();
    if (combos) {
      TOSS_ASSIGN_OR_RETURN(combos, joiner->EvalRootPrefilters());
    }
    obs::Span merge_span(&eval_span, "twig_merge");
    // Cross-document value filter: skip pair merges that provably share no
    // similarity-compatible join-key values (nullptr when the join shape
    // is outside the filter's envelope; see TwigJoiner::BuildValueFilter).
    std::unique_ptr<tax::TwigValueFilter> value_filter;
    if (combos) {
      std::vector<tax::TwigDoc*> all_docs;
      all_docs.reserve(ltwig.size() + rtwig.size());
      for (auto& d : ltwig) all_docs.push_back(&d);
      for (auto& d : rtwig) all_docs.push_back(&d);
      value_filter = joiner->BuildValueFilter(all_docs);
    }
    std::vector<const tax::TwigDoc*> rptrs;
    rptrs.reserve(rtwig.size());
    for (const auto& d : rtwig) rptrs.push_back(&d);
    std::vector<tax::TreeCollection> parts(ldocs.size());
    std::atomic<uint64_t> parts_skipped{0};
    TOSS_RETURN_NOT_OK(RunPerDoc(
        ldocs.size(),
        [&](size_t i) -> Status {
          if (i > 0 && joiner->CanSkipPart(ltwig[i])) {
            // Everything this part could emit was already emitted while
            // streaming the right side under ldocs[0] (dedup absorbs it).
            parts_skipped.fetch_add(1, std::memory_order_relaxed);
            return Status::OK();
          }
          TOSS_ASSIGN_OR_RETURN(
              parts[i],
              joiner->JoinLeft(ltwig[i], rptrs, combos, /*first_part=*/i == 0,
                               value_filter.get(), options.cancel, &tstats));
          return Status::OK();
        },
        options));
    result = tax::MergeDedup(std::move(parts));
    const uint64_t pruned_subtrees =
        docs_pruned + tstats.pairs_pruned.load(std::memory_order_relaxed) +
        parts_skipped.load(std::memory_order_relaxed);
    if (merge_span.enabled()) {
      merge_span.Annotate(
          "stream_advances",
          tstats.stream_advances.load(std::memory_order_relaxed));
      merge_span.Annotate(
          "stack_pushes", tstats.stack_pushes.load(std::memory_order_relaxed));
      merge_span.Annotate(
          "pairs_scanned", tstats.pairs_scanned.load(std::memory_order_relaxed));
      merge_span.Annotate(
          "pairs_value_skipped",
          tstats.pairs_value_skipped.load(std::memory_order_relaxed));
      merge_span.Annotate("pruned_subtrees", pruned_subtrees);
      merge_span.Annotate(
          "combos_emitted",
          tstats.combos_emitted.load(std::memory_order_relaxed));
    }
    merge_span.End();
    if (eval_span.enabled()) eval_span.Annotate("join_engine", "twig");
    m.twig_joins.Increment();
    m.twig_postings.Add(tstats.postings_built.load(std::memory_order_relaxed));
    m.twig_advances.Add(
        tstats.stream_advances.load(std::memory_order_relaxed));
    m.twig_pushes.Add(tstats.stack_pushes.load(std::memory_order_relaxed));
    m.twig_pairs.Add(tstats.pairs_scanned.load(std::memory_order_relaxed));
    m.twig_value_skips.Add(
        tstats.pairs_value_skipped.load(std::memory_order_relaxed));
    m.twig_combos.Add(tstats.combos_emitted.load(std::memory_order_relaxed));
    m.twig_pruned.Add(pruned_subtrees);
  } else {
    m.twig_fallbacks.Increment();
    if (eval_span.enabled()) eval_span.Annotate("join_engine", "pairwise");
    // Backfill any right trees the twig attempt skipped before bailing.
    for (size_t i = 0; i < rtrees.size(); ++i) {
      if (rtrees[i] == nullptr) rtrees[i] = rcoll->DecodedTree(rdocs[i]);
    }
    std::vector<const tax::DataTree*> right_ptrs;
    right_ptrs.reserve(rtrees.size());
    for (const auto& t : rtrees) right_ptrs.push_back(t.get());
    // Fan out per left document; each worker streams the full right side,
    // so pair order (left-major) matches the sequential join exactly.
    std::vector<tax::TreeCollection> parts(ldocs.size());
    TOSS_RETURN_NOT_OK(RunPerDoc(
        ldocs.size(),
        [&](size_t i) -> Status {
          std::shared_ptr<const tax::DataTree> ltree =
              lcoll->DecodedTree(ldocs[i]);
          TOSS_ASSIGN_OR_RETURN(
              parts[i],
              tax::JoinTreeWithRight(*ltree, right_ptrs, pattern, expand,
                                     sem));
          return Status::OK();
        },
        options));
    result = tax::MergeDedup(std::move(parts));
  }
  if (eval_span.enabled()) {
    eval_span.Annotate("docs_evaluated", static_cast<uint64_t>(ldocs.size()));
    eval_span.Annotate("result_trees", static_cast<uint64_t>(result.size()));
    AnnotateCacheDelta(&eval_span, lcache_before, lcoll->GetTreeCacheStats());
  }
  if (stats != nullptr) stats->join_engine = use_twig ? 2 : 1;
  eval_span.End();
  m.eval_ns.Record(static_cast<uint64_t>(timer.ElapsedNanos()));
  m.result_trees.Add(result.size());
  if (stats != nullptr) {
    stats->eval_ms += timer.ElapsedMillis();
    stats->result_trees += result.size();
  }
  return result;
}

}  // namespace toss::core
