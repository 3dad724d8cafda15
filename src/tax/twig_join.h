// Holistic structural join engine (the TwigStack family, adapted to TAX).
//
// The classic Join evaluates sigma_{P,SL}(Product(l, r)) by materializing a
// product tree per (l, r) document pair and re-running the full embedding
// enumeration inside it -- O(|L| * |R|) enumerations, each rediscovering
// the same per-document structure. This engine factors the work:
//
//   1. labelling  -- every decoded DataTree carries positional labels
//      (preorder id + subtree interval + depth, see DataTree::BuildTagIndex),
//      so ancestorship is an O(1) interval test;
//   2. postings   -- each root-child subtree of the join pattern is matched
//      ONCE per document (FindPartialMatches), yielding sorted posting
//      tuples in enumeration order;
//   3. merge      -- per pair, a stack of posting runs replays the product
//      tree's backtracking over the two posting lists, collapsing the
//      duplicate work: equal prefixes advance as one run instead of once
//      per downstream combination.
//
// Answers are byte-identical to the pairwise path, in the same order: the
// merge enumerates exactly the complete mappings the product enumeration
// would, in the same sequence, and builds each witness with the same
// AppendWitness walk. Single-label conjunctive atoms are evaluated during
// posting construction (the enumerator's own pushdown), so the per-mapping
// check shrinks to the cross-tree residue; ~ atoms are served by a
// memoizing SimilarOracle so per-term preparation (ontology lookup,
// lowering, signatures) is paid once per distinct term, not once per pair.

#ifndef TOSS_TAX_TWIG_JOIN_H_
#define TOSS_TAX_TWIG_JOIN_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/interner.h"
#include "common/result.h"
#include "tax/condition.h"
#include "tax/data_tree.h"
#include "tax/embedding.h"
#include "tax/pattern_tree.h"

namespace toss::tax {

/// Thread-safe verdict for `x ~ y` on raw term texts, exactly as the active
/// ConditionSemantics would decide it (both semantics' Similar reads only
/// the texts and never errors). Implementations may memoize per-term state
/// across the quadratic merge; they must be pure.
class SimilarOracle {
 public:
  virtual ~SimilarOracle() = default;
  virtual bool Similar(const std::string& x, const std::string& y) const = 0;

  /// Id-aware variant with the identical verdict. Equal valid ids are equal
  /// texts (ids are canonical), so they short-circuit; implementations may
  /// additionally key their memos on the ids. Pass kInvalidSymbol for a
  /// term whose id is unknown.
  virtual bool SimilarSym(SymbolId sx, const std::string& x, SymbolId sy,
                          const std::string& y) const {
    if (sx != kInvalidSymbol && sx == sy) return true;
    return Similar(x, y);
  }

  /// Compatibility buckets for the twig value filter (TwigValueFilter):
  /// two terms with non-empty bucket lists are Similar iff their lists
  /// intersect; a term with an empty list is "free" and every pair
  /// involving it must be decided by SimilarSym directly. The default
  /// (everything free) is always correct, merely unprunable in bulk.
  virtual std::vector<uint64_t> CompatBuckets(
      const std::string& /*term*/) const {
    return {};
  }
};

/// Plain TAX: ~ degrades to exact string equality (TaxSemantics::Similar).
class ExactSimilarOracle final : public SimilarOracle {
 public:
  bool Similar(const std::string& x, const std::string& y) const override {
    return x == y;
  }

  bool SimilarSym(SymbolId sx, const std::string& x, SymbolId sy,
                  const std::string& y) const override {
    if (sx != kInvalidSymbol && sy != kInvalidSymbol) return sx == sy;
    return x == y;
  }

  /// Exact equality: each term is its own bucket, keyed by its interned id
  /// (distinct texts never intersect). Unknown terms stay free -- the
  /// pairwise fallback preserves the verdict.
  std::vector<uint64_t> CompatBuckets(const std::string& term) const override {
    auto sym = Interner::Global().Find(term);
    if (!sym.has_value()) return {};
    return {*sym};
  }
};

/// Merge-phase counters, surfaced through EXPLAIN ANALYZE annotations and
/// the core.query.join.twig.* metrics. Atomic: parts merge in parallel.
struct TwigJoinStats {
  std::atomic<uint64_t> postings_built{0};   ///< posting lists materialized
  std::atomic<uint64_t> stream_advances{0};  ///< posting entries scanned
  std::atomic<uint64_t> stack_pushes{0};     ///< run frames pushed
  std::atomic<uint64_t> pairs_scanned{0};    ///< (left, right) pairs merged
  std::atomic<uint64_t> pairs_pruned{0};     ///< pairs skipped, no new postings
  std::atomic<uint64_t> pairs_value_skipped{0};  ///< TwigValueFilter skips
  std::atomic<uint64_t> combos_checked{0};   ///< complete mappings checked
  std::atomic<uint64_t> combos_emitted{0};   ///< mappings passing the residue
};

/// One document's join-relevant state, prepared once per document instead of
/// once per pair.
struct TwigDoc {
  std::shared_ptr<const DataTree> tree;

  /// tuples[s] = partial matches of root-child subtree s, in the exact
  /// order the full enumeration assigns those pattern nodes; each tuple
  /// lists image NodeIds by ascending pattern index (head first).
  std::vector<std::vector<std::vector<NodeId>>> tuples;

  /// Witnesses of embeddings wholly inside this document (the join groups
  /// whose pattern root maps into one operand), in embedding order, with
  /// their structural hashes precomputed for cross-part dedup.
  std::vector<DataTree> inside;
  std::vector<uint64_t> inside_hashes;

  /// False when the tree lacks a faithful tag index or preorder ids, or a
  /// posting list exceeded the materialization cap: the caller must fall
  /// back to the pairwise path for the whole join.
  bool supported = true;

  /// False for documents skipped by store-level pruning: no postings, no
  /// inside embeddings, `tree` unset (never decoded).
  bool prepared = false;

  /// This document's slot in the join's TwigValueFilter, assigned by
  /// TwigJoiner::BuildValueFilter; kNoValueSlot when the document is
  /// outside the filter (pairs involving it are never skipped).
  static constexpr uint32_t kNoValueSlot = 0xFFFFFFFFu;
  uint32_t value_slot = kNoValueSlot;

  bool HasPostings() const {
    for (const auto& t : tuples) {
      if (!t.empty()) return true;
    }
    return false;
  }
};

/// Cross-document posting-key value index. For joins whose residue (the
/// per-mapping condition left after pushdown) is exactly a conjunction of
/// oracle-served ~ atoms, with one "anchor" atom joining node terms that
/// live in the two different pattern subtrees, the filter precomputes per
/// document the distinct values its postings expose under the anchor's two
/// slots, and the similarity-compatibility closure over that value
/// universe. A (left, right) pair whose value sets admit no compatible
/// mixed combination can skip the merge walk outright: no cross-document
/// mapping can pass the anchor, and the pure-side mappings the walk would
/// emit are byte-identical duplicates of pairs that are never skipped.
/// Built per join by TwigJoiner::BuildValueFilter; read-only afterwards
/// (safe to share across merge threads).
class TwigValueFilter {
 public:
  /// True when the (left, right) pair provably emits nothing that survives
  /// dedup. Caller contract (soundness): only consult for non-first parts
  /// (`left` is not the join's first left document) and non-first pairs
  /// (`right` is not the first right document).
  bool CanSkipPair(const TwigDoc& left, const TwigDoc& right) const;

 private:
  friend class TwigJoiner;
  using Bits = std::vector<uint64_t>;

  /// Per-document state. A mixed mapping places the anchor's lhs slot in
  /// one document and its rhs slot in the other, so the pair test only
  /// needs each side's rhs-value set and the compat closure of its
  /// lhs-value set:
  ///   skippable(L, R) <=> compat_lhs(L) ∩ rhs(R) = ∅
  ///                    and compat_lhs(R) ∩ rhs(L) = ∅.
  struct DocBits {
    Bits rhs;         ///< values under the anchor's rhs slot
    Bits compat_lhs;  ///< union of compat rows over the lhs slot's values
  };

  TwigValueFilter() = default;

  std::vector<DocBits> docs_;  ///< indexed by TwigDoc::value_slot
};

/// The planned decomposition of one join pattern. Plan once per join; the
/// joiner is then read-only and shared across worker threads. The pattern,
/// semantics, and oracle must outlive it. Its EmbeddingPlan is built in
/// Plan, so Prepare takes trees the EmbeddingPlan contract covers: store
/// documents, or trees tag-indexed before Plan.
class TwigJoiner {
 public:
  /// Builds the plan, or nullptr when the pattern shape is outside the
  /// engine (empty pattern / childless root) and the caller must use the
  /// pairwise path. `oracle` must implement the same ~ verdict as
  /// `semantics` (nullptr routes ~ atoms through `semantics` directly).
  static std::unique_ptr<TwigJoiner> Plan(const PatternTree& pattern,
                                          const std::set<int>& expand,
                                          const ConditionSemantics& semantics,
                                          const SimilarOracle* oracle);

  /// Builds a document's postings and inside-embeddings. Errors propagate
  /// from condition evaluation exactly as the pairwise enumeration would
  /// raise them.
  Result<TwigDoc> Prepare(std::shared_ptr<const DataTree> tree,
                          TwigJoinStats* stats) const;

  /// The stand-in for a store-pruned document (see PruneFilterIds): empty
  /// postings, no inside embeddings, never decoded.
  TwigDoc PrunedDoc() const;

  /// Tag sets certifying store-level document pruning: a document with no
  /// node tagged in any of these sets (and no '*' tag) can host neither a
  /// posting nor an inside embedding, AND the pairwise path would never
  /// evaluate a condition on its nodes -- so skipping it cannot change the
  /// answer or suppress an error. Empty when pruning is unsound for this
  /// pattern (an unpinned subtree head, a prefiltered unpinned root, or an
  /// SL-expanded root whose witnesses embed whole documents). Each set is
  /// a sorted SymbolId list for Collection::DocsWithAnyTagIds; literals the
  /// dictionary has never seen are dropped -- the store interns every
  /// indexed tag, so an unknown literal matches no document.
  std::vector<std::vector<SymbolId>> PruneFilterIds() const;

  /// Builds the cross-document value filter over the join's prepared
  /// documents, assigning each eligible document's `value_slot`. Returns
  /// nullptr when the join is outside the filter's soundness envelope --
  /// the residue must consist solely of known-true entries and
  /// oracle-served ~ atoms none of which can error (so a skipped merge
  /// cannot suppress a verdict or an error), with an anchor ~ atom joining
  /// two non-root node terms in the two different subtrees of a
  /// two-subtree pattern -- or when the value universe exceeds fixed caps.
  std::unique_ptr<TwigValueFilter> BuildValueFilter(
      const std::vector<TwigDoc*>& docs) const;

  /// Whether the synthetic product root passes the root label's tag filter
  /// (always true without one). False disables the cross-tree groups
  /// entirely, exactly as the pairwise enumeration would never map the
  /// root to the product node.
  bool root_tag_allowed() const { return root_tag_allowed_; }

  /// Evaluates the root label's single-label atoms against the synthetic
  /// product root, in pushdown order with short-circuit -- the once-per-join
  /// equivalent of the per-pair root prefilter check. False disables the
  /// cross-tree groups; errors propagate.
  Result<bool> EvalRootPrefilters() const;

  /// True when this left document's part provably repeats the first left
  /// document's part (no postings, no inside embeddings, plain witnesses),
  /// so the executor may skip its merge entirely. Never true for the first
  /// left document, by the caller's contract.
  bool CanSkipPart(const TwigDoc& doc) const {
    return !root_in_expand_ && !doc.HasPostings() && doc.inside.empty();
  }

  /// One left document joined against the whole right side, in
  /// right-collection order, duplicates collapsed -- the twig equivalent of
  /// JoinTreeWithRight, byte-identical output. `combos_enabled` gates the
  /// cross-tree groups (root tag disallowed or root prefilters false).
  /// `value_filter` (optional) skips provably-redundant pair merges; it is
  /// only consulted when `first_part` is false and the pair is not the
  /// part's first (the soundness contract of TwigValueFilter).
  Result<TreeCollection> JoinLeft(const TwigDoc& left,
                                  const std::vector<const TwigDoc*>& rights,
                                  bool combos_enabled, bool first_part,
                                  const TwigValueFilter* value_filter,
                                  const CancelToken* cancel,
                                  TwigJoinStats* stats) const;

 private:
  friend class TwigMerger;

  /// One root-child pattern subtree: its own posting stream.
  struct Subtree {
    size_t head = 0;                ///< pattern index of the root child
    bool head_must_be_root = false; ///< pc edge off the product root
    std::vector<size_t> indexes;    ///< subtree pattern indexes, ascending
  };

  /// Where a global pattern index lives: which stream, which tuple slot.
  struct Slot {
    uint32_t subtree = 0;
    uint32_t depth = 0;
  };

  /// Per-mapping residue plan: the condition's conjunctive leaves in
  /// evaluation order. kKnownTrue leaves were already enforced during
  /// posting construction (purity makes re-evaluation a no-op);
  /// kCachedSimilar leaves route through the oracle; kGeneric leaves run
  /// the ordinary recursive evaluation.
  enum class EntryKind { kKnownTrue, kCachedSimilar, kGeneric };
  struct PlanEntry {
    EntryKind kind = EntryKind::kGeneric;
    const Condition* cond = nullptr;
  };

  TwigJoiner() = default;
  void FlattenCondition(const Condition& c);

  const PatternTree* pattern_ = nullptr;
  /// The pattern compiled once per join, shared by every Prepare.
  std::optional<EmbeddingPlan> embedding_plan_;
  std::set<int> expand_;
  const ConditionSemantics* semantics_ = nullptr;
  const SimilarOracle* oracle_ = nullptr;
  std::vector<Subtree> subtrees_;
  std::vector<Slot> slots_;          ///< by pattern index; [0] unused
  std::vector<int> label_to_index_;  ///< label -> pattern index, -1 absent
  std::map<int, std::set<std::string>> tag_filters_;
  std::map<int, std::vector<const Condition*>> prefilters_;
  std::vector<PlanEntry> entries_;
  DataTree product_root_;  ///< the synthetic pair root (one node)
  int root_label_ = 0;
  bool root_tag_allowed_ = true;
  bool root_in_expand_ = false;
};

}  // namespace toss::tax

#endif  // TOSS_TAX_TWIG_JOIN_H_
