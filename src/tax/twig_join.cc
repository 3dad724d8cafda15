#include "tax/twig_join.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "tax/embedding.h"
#include "tax/label_map.h"
#include "tax/operators.h"

namespace toss::tax {

namespace {

/// TwigValueFilter caps. The value universe bounds every bitset (and the
/// compat closure is universe^2 bits at worst); free-pair checks invoke the
/// oracle's measure fallback, the one per-pair cost that is not a cheap
/// intersection. Beyond either cap the filter build bails and the join
/// runs unfiltered.
constexpr size_t kMaxFilterValues = 4096;
constexpr uint64_t kMaxFreePairChecks = uint64_t{1} << 20;
constexpr uint64_t kMaxBucketPairWork = uint64_t{1} << 24;

inline void SetBit(std::vector<uint64_t>& bits, uint32_t i) {
  bits[i >> 6] |= uint64_t{1} << (i & 63u);
}

inline void OrInto(std::vector<uint64_t>& dst,
                   const std::vector<uint64_t>& src) {
  for (size_t w = 0; w < dst.size(); ++w) dst[w] |= src[w];
}

inline bool Intersects(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b) {
  for (size_t w = 0; w < a.size(); ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

}  // namespace

/// Per-(left, pair) merge state: replays the product tree's backtracking
/// over the concatenated posting lists. For each pattern position the
/// current "run" of a subtree's stream is the contiguous range of tuples
/// agreeing with every image chosen so far; assigning the position splits
/// the run into maximal groups of equal (side, image) -- the product
/// enumeration's candidate list, with equal candidates collapsed. Left
/// tuples precede right tuples (product ids order the left copy first), so
/// runs never need to interleave sides.
class TwigMerger {
 public:
  TwigMerger(const TwigJoiner& plan, const TwigDoc& left,
             const CancelToken* cancel, TwigJoinStats* stats,
             TreeDeduper* dedup)
      : plan_(plan),
        left_(left),
        cancel_(cancel),
        stats_(stats),
        dedup_(dedup) {}

  Status MergePair(const TwigDoc& right) {
    right_ = &right;
    pair_witness_added_ = false;
    const size_t n = plan_.subtrees_.size();
    runs_.assign(n, Run{});
    for (size_t s = 0; s < n; ++s) {
      runs_[s] = Run{0, left_.tuples[s].size() + right.tuples[s].size()};
      // An empty stream admits no complete mapping; the product enumeration
      // would produce nothing for this pair either.
      if (runs_[s].lo == runs_[s].hi) return Status::OK();
    }
    return Walk(1);
  }

  /// Folds the locally accumulated counters into the shared stats (one
  /// atomic round-trip per part instead of per advance).
  void Flush() {
    stats_->stream_advances.fetch_add(advances_, std::memory_order_relaxed);
    stats_->stack_pushes.fetch_add(pushes_, std::memory_order_relaxed);
    stats_->combos_checked.fetch_add(checked_, std::memory_order_relaxed);
    stats_->combos_emitted.fetch_add(emitted_, std::memory_order_relaxed);
    advances_ = pushes_ = checked_ = emitted_ = 0;
  }

 private:
  struct Run {
    size_t lo = 0;
    size_t hi = 0;
  };

  /// Resolves pattern labels against the current (complete) mapping: the
  /// root is the synthetic product node, every other label reads its
  /// subtree's singleton run.
  class ComboSource final : public NodeSource {
   public:
    explicit ComboSource(const TwigMerger& m) : m_(m) {}
    const DataNode* Resolve(int label) const override {
      return ResolveIds(label).node;
    }
    ResolvedNode ResolveIds(int label) const override {
      ResolvedNode r;
      if (label == m_.plan_.root_label_) {
        r.node = &m_.plan_.product_root_.node(0);
        return r;
      }
      const std::vector<int>& map = m_.plan_.label_to_index_;
      const int idx =
          (label >= 0 && label < static_cast<int>(map.size())) ? map[label]
                                                               : -1;
      if (idx <= 0) return r;
      const TwigJoiner::Slot& slot = m_.plan_.slots_[idx];
      const size_t i = m_.runs_[slot.subtree].lo;
      const DataTree& tree = m_.OnLeft(slot.subtree, i)
                                 ? *m_.left_.tree
                                 : *m_.right_->tree;
      const NodeId v = m_.Tuple(slot.subtree, i)[slot.depth];
      r.node = &tree.node(v);
      if (tree.HasSymbolIds()) {
        r.tag_symbol = tree.TagId(v);
        r.content_symbol = tree.ContentId(v);
      }
      return r;
    }

   private:
    const TwigMerger& m_;
  };

  const std::vector<NodeId>& Tuple(size_t s, size_t i) const {
    const auto& lt = left_.tuples[s];
    return i < lt.size() ? lt[i] : right_->tuples[s][i - lt.size()];
  }

  bool OnLeft(size_t s, size_t i) const {
    return i < left_.tuples[s].size();
  }

  Status Walk(size_t pos) {
    if (pos == plan_.pattern_->node_count()) return EmitCombo();
    const TwigJoiner::Slot& slot = plan_.slots_[pos];
    const Run saved = runs_[slot.subtree];
    size_t j = saved.lo;
    while (j < saved.hi) {
      // The maximal group of tuples sharing this position's image. Equal
      // NodeIds across the side boundary are distinct data nodes, hence
      // the side check; within one side a group is one product candidate.
      const bool side = OnLeft(slot.subtree, j);
      const NodeId v = Tuple(slot.subtree, j)[slot.depth];
      size_t e = j + 1;
      while (e < saved.hi && OnLeft(slot.subtree, e) == side &&
             Tuple(slot.subtree, e)[slot.depth] == v) {
        ++e;
      }
      advances_ += e - j;
      ++pushes_;
      if ((++ticks_ & 1023u) == 0) {
        TOSS_RETURN_NOT_OK(CheckCancel(cancel_));
      }
      runs_[slot.subtree] = Run{j, e};
      Status st = Walk(pos + 1);
      runs_[slot.subtree] = saved;
      TOSS_RETURN_NOT_OK(st);
      j = e;
    }
    return Status::OK();
  }

  Status EmitCombo() {
    ++checked_;
    TOSS_ASSIGN_OR_RETURN(bool ok, EvalEntries());
    if (!ok) return Status::OK();
    ++emitted_;
    if (plan_.root_in_expand_) {
      // The root is SL-expanded: its image's data subtree -- the entire
      // product tree -- is the witness. All of a pair's mappings share it;
      // build it once, let the dedup collapse the repeats (but keep
      // evaluating mappings: a later one may raise).
      if (!pair_witness_added_) {
        DataTree w;
        NodeId root = w.CreateRoot(kProductRootTag);
        w.CopySubtree(*left_.tree, left_.tree->root(), root);
        w.CopySubtree(*right_->tree, right_->tree->root(), root);
        dedup_->Add(std::move(w));
        pair_witness_added_ = true;
      }
      return Status::OK();
    }
    // Witness = fresh product root + each side's induced witness, the same
    // two-child walk BuildWitnessTree performs on the materialized product
    // tree. A side with no image nodes contributes nothing, so its walk is
    // skipped (it may not even be decoded, for store-pruned documents).
    std::set<NodeId> wit[2], exp[2];  // [0] left operand, [1] right
    for (size_t s = 0; s < plan_.subtrees_.size(); ++s) {
      const size_t i = runs_[s].lo;
      std::set<NodeId>& w = wit[OnLeft(s, i) ? 0 : 1];
      for (NodeId v : Tuple(s, i)) w.insert(v);
    }
    for (int label : plan_.expand_) {
      const std::vector<int>& map = plan_.label_to_index_;
      const int idx =
          (label >= 0 && label < static_cast<int>(map.size())) ? map[label]
                                                               : -1;
      if (idx <= 0) continue;  // not a pattern node: nothing to expand
      const TwigJoiner::Slot& slot = plan_.slots_[idx];
      const size_t i = runs_[slot.subtree].lo;
      exp[OnLeft(slot.subtree, i) ? 0 : 1].insert(
          Tuple(slot.subtree, i)[slot.depth]);
    }
    DataTree w;
    NodeId root = w.CreateRoot(kProductRootTag);
    if (!wit[0].empty()) {
      AppendWitness(*left_.tree, left_.tree->root(), wit[0], exp[0], &w, root);
    }
    if (!wit[1].empty()) {
      AppendWitness(*right_->tree, right_->tree->root(), wit[1], exp[1], &w,
                    root);
    }
    dedup_->Add(std::move(w));
    return Status::OK();
  }

  /// The per-mapping residue: conjunctive leaves in pushdown order with
  /// short-circuit, skipping what posting construction already enforced.
  Result<bool> EvalEntries() {
    ComboSource src(*this);
    for (const TwigJoiner::PlanEntry& e : plan_.entries_) {
      switch (e.kind) {
        case TwigJoiner::EntryKind::kKnownTrue:
          break;
        case TwigJoiner::EntryKind::kCachedSimilar: {
          TOSS_ASSIGN_OR_RETURN(TermValue x, EvalTerm(e.cond->lhs, src));
          TOSS_ASSIGN_OR_RETURN(TermValue y, EvalTerm(e.cond->rhs, src));
          if (!plan_.oracle_->SimilarSym(x.symbol, x.text, y.symbol,
                                         y.text)) {
            return false;
          }
          break;
        }
        case TwigJoiner::EntryKind::kGeneric: {
          TOSS_ASSIGN_OR_RETURN(
              bool ok, EvalCondition(*e.cond, src, *plan_.semantics_));
          if (!ok) return false;
          break;
        }
      }
    }
    return true;
  }

  const TwigJoiner& plan_;
  const TwigDoc& left_;
  const TwigDoc* right_ = nullptr;
  const CancelToken* cancel_;
  TwigJoinStats* stats_;
  TreeDeduper* dedup_;
  std::vector<Run> runs_;
  bool pair_witness_added_ = false;
  uint64_t advances_ = 0;
  uint64_t pushes_ = 0;
  uint64_t checked_ = 0;
  uint64_t emitted_ = 0;
  uint64_t ticks_ = 0;  ///< cancellation cadence
};

std::unique_ptr<TwigJoiner> TwigJoiner::Plan(
    const PatternTree& pattern, const std::set<int>& expand,
    const ConditionSemantics& semantics, const SimilarOracle* oracle) {
  if (pattern.empty() || pattern.node(0).children.empty()) return nullptr;
  // An invalid pattern takes the pairwise path, which reports the error.
  Result<EmbeddingPlan> embedding_plan = EmbeddingPlan::Build(pattern);
  if (!embedding_plan.ok()) return nullptr;
  std::unique_ptr<TwigJoiner> j(new TwigJoiner());
  j->pattern_ = &pattern;
  j->embedding_plan_.emplace(std::move(embedding_plan).value());
  j->expand_ = expand;
  j->semantics_ = &semantics;
  j->oracle_ = oracle;
  const PatternNode& root = pattern.node(0);
  j->root_label_ = root.label;
  j->root_in_expand_ = expand.count(root.label) > 0;
  // The synthetic product root: same defaults CreateRoot gives the real
  // product tree's root (string types, empty content, no provenance).
  j->product_root_.CreateRoot(kProductRootTag);
  j->tag_filters_ = CollectConjunctiveTagFilters(pattern.condition());
  j->prefilters_ = CollectConjunctivePrefilters(pattern.condition());
  auto f0 = j->tag_filters_.find(root.label);
  j->root_tag_allowed_ = f0 == j->tag_filters_.end() ||
                         f0->second.count(kProductRootTag) > 0;
  int max_label = 0;
  for (size_t i = 0; i < pattern.node_count(); ++i) {
    max_label = std::max(max_label, pattern.node(i).label);
  }
  j->label_to_index_.assign(static_cast<size_t>(max_label) + 1, -1);
  for (size_t i = 0; i < pattern.node_count(); ++i) {
    const int label = pattern.node(i).label;
    if (label >= 0) j->label_to_index_[label] = static_cast<int>(i);
  }
  // Decompose into the root's child subtrees and map every pattern index to
  // its (stream, tuple-slot) coordinate. Ascending subtree indexes are the
  // relative order the full enumeration assigns them in, so slot depths
  // advance monotonically as the merge walks global positions 1..n-1.
  j->slots_.resize(pattern.node_count());
  for (int child : root.children) {
    Subtree st;
    st.head = static_cast<size_t>(child);
    st.head_must_be_root =
        pattern.node(st.head).edge_from_parent == EdgeKind::kPc;
    std::vector<size_t> stack{st.head};
    while (!stack.empty()) {
      const size_t cur = stack.back();
      stack.pop_back();
      st.indexes.push_back(cur);
      for (int c : pattern.node(cur).children) {
        stack.push_back(static_cast<size_t>(c));
      }
    }
    std::sort(st.indexes.begin(), st.indexes.end());
    for (size_t d = 0; d < st.indexes.size(); ++d) {
      j->slots_[st.indexes[d]] =
          Slot{static_cast<uint32_t>(j->subtrees_.size()),
               static_cast<uint32_t>(d)};
    }
    j->subtrees_.push_back(std::move(st));
  }
  j->FlattenCondition(pattern.condition());
  return j;
}

void TwigJoiner::FlattenCondition(const Condition& c) {
  if (c.kind == Condition::Kind::kAnd) {
    for (const auto& child : c.children) FlattenCondition(*child);
    return;
  }
  PlanEntry e;
  e.cond = &c;
  if (c.kind == Condition::Kind::kTrue) {
    e.kind = EntryKind::kKnownTrue;
  } else if (c.kind == Condition::Kind::kAtom &&
             c.ReferencedLabels().size() == 1) {
    // The single-label conjunctive atoms are exactly the enumerator's
    // prefilters: every posting tuple already passed its nodes' atoms, and
    // the root's are checked once per join (EvalRootPrefilters) before any
    // cross-tree mapping is attempted. Semantics are pure, so skipping the
    // re-evaluation can change neither value nor error behaviour.
    e.kind = EntryKind::kKnownTrue;
  } else if (c.kind == Condition::Kind::kAtom &&
             c.op == CondOp::kSimilar && oracle_ != nullptr) {
    // ~ reads only the term texts and never errors under either semantics,
    // so the memoizing oracle can stand in for it verbatim.
    e.kind = EntryKind::kCachedSimilar;
  } else {
    e.kind = EntryKind::kGeneric;
  }
  entries_.push_back(e);
}

Result<TwigDoc> TwigJoiner::Prepare(std::shared_ptr<const DataTree> tree,
                                    TwigJoinStats* stats) const {
  TwigDoc d;
  d.tree = std::move(tree);
  d.prepared = true;
  // The merge relies on tag pruning being faithful and on interval
  // ancestorship; trees outside that envelope (exotic tag types,
  // non-preorder ids) take the pairwise path. Store-decoded trees always
  // qualify (FromXml builds both).
  if (!d.tree->TagFilterable() || !d.tree->HasPreorderIds()) {
    d.supported = false;
    return d;
  }
  d.tuples.resize(subtrees_.size());
  for (size_t s = 0; s < subtrees_.size(); ++s) {
    PartialMatchOptions opt;
    opt.head_must_be_root = subtrees_[s].head_must_be_root;
    TOSS_ASSIGN_OR_RETURN(
        d.tuples[s], FindPartialMatches(*embedding_plan_, subtrees_[s].head,
                                        *d.tree, *semantics_, opt));
    if (d.tuples[s].size() > kMaxPostingsPerSubtree) {
      // Pathological fan-out: materializing postings would dwarf the
      // pairwise scan they replace.
      d.supported = false;
      return d;
    }
  }
  stats->postings_built.fetch_add(subtrees_.size(),
                                  std::memory_order_relaxed);
  // Embeddings wholly inside this document (the groups whose pattern root
  // maps into one operand) repeat identically in every pair the document
  // participates in; memoize their witnesses once.
  TOSS_ASSIGN_OR_RETURN(std::vector<Embedding> inside,
                        embedding_plan_->Run(*d.tree, *semantics_));
  d.inside.reserve(inside.size());
  for (const Embedding& h : inside) {
    DataTree w = BuildWitnessTree(*pattern_, *d.tree, h, expand_);
    d.inside_hashes.push_back(w.StructuralHash());
    d.inside.push_back(std::move(w));
  }
  return d;
}

TwigDoc TwigJoiner::PrunedDoc() const {
  TwigDoc d;
  d.tuples.resize(subtrees_.size());
  return d;
}

std::vector<std::vector<SymbolId>> TwigJoiner::PruneFilterIds() const {
  // Soundness (see header): the pairwise enumeration must provably perform
  // ZERO condition evaluations on a skipped document's nodes. Subtree heads
  // need a tag pin (no candidates => no deeper assignments on that side);
  // the root needs either a tag pin of its own or no prefilters at all
  // (unpinned, every node is a root candidate and each would be
  // prefilter-checked). An SL-expanded root embeds whole documents into
  // witnesses, so no document is ever redundant.
  if (root_in_expand_) return {};
  std::vector<const std::set<std::string>*> keep;
  for (const Subtree& st : subtrees_) {
    auto it = tag_filters_.find(pattern_->node(st.head).label);
    if (it == tag_filters_.end()) return {};
    keep.push_back(&it->second);
  }
  auto f0 = tag_filters_.find(root_label_);
  if (f0 != tag_filters_.end()) {
    keep.push_back(&f0->second);
  } else if (prefilters_.count(root_label_) > 0) {
    return {};
  }
  std::vector<std::vector<SymbolId>> out;
  Interner& interner = Interner::Global();
  for (const std::set<std::string>* tags : keep) {
    std::vector<SymbolId> ids;
    ids.reserve(tags->size());
    for (const std::string& tag : *tags) {
      if (auto sym = interner.Find(tag)) ids.push_back(*sym);
    }
    std::sort(ids.begin(), ids.end());
    out.push_back(std::move(ids));
  }
  return out;
}

bool TwigValueFilter::CanSkipPair(const TwigDoc& left,
                                  const TwigDoc& right) const {
  if (left.value_slot == TwigDoc::kNoValueSlot ||
      right.value_slot == TwigDoc::kNoValueSlot) {
    return false;
  }
  const DocBits& l = docs_[left.value_slot];
  const DocBits& r = docs_[right.value_slot];
  // A mixed mapping places the anchor's lhs slot in one document and its
  // rhs slot in the other; both orientations must be value-incompatible.
  return !Intersects(l.compat_lhs, r.rhs) && !Intersects(r.compat_lhs, l.rhs);
}

std::unique_ptr<TwigValueFilter> TwigJoiner::BuildValueFilter(
    const std::vector<TwigDoc*>& docs) const {
  // Shape gates (soundness; see header). Exactly two subtrees guarantee
  // that every mixed mapping places the anchor's two slots in opposite
  // documents -- with more subtrees a cross-document mapping could still
  // evaluate the anchor within one side.
  if (root_in_expand_ || subtrees_.size() != 2 || oracle_ == nullptr) {
    return nullptr;
  }
  auto index_of = [&](int label) -> int {
    return (label >= 0 && label < static_cast<int>(label_to_index_.size()))
               ? label_to_index_[label]
               : -1;
  };
  auto slot_of = [&](const CondTerm& t, Slot* slot, bool* content) -> bool {
    if (t.kind != CondTerm::Kind::kNodeTag &&
        t.kind != CondTerm::Kind::kNodeContent) {
      return false;
    }
    if (t.node_label == root_label_) return false;
    const int idx = index_of(t.node_label);
    if (idx <= 0) return false;
    *slot = slots_[idx];
    *content = t.kind == CondTerm::Kind::kNodeContent;
    return true;
  };
  // Residue gate: every entry must be provably error-free under a complete
  // mapping (no kGeneric entries; every node term of a ~ atom resolves to
  // a pattern slot or the product root), so a skipped merge cannot
  // suppress an error. Among the ~ atoms, find an anchor joining the two
  // subtrees.
  const Condition* anchor = nullptr;
  Slot lhs_slot{}, rhs_slot{};
  bool lhs_content = false, rhs_content = false;
  for (const PlanEntry& e : entries_) {
    if (e.kind == EntryKind::kKnownTrue) continue;
    if (e.kind == EntryKind::kGeneric) return nullptr;
    for (const CondTerm* t : {&e.cond->lhs, &e.cond->rhs}) {
      if ((t->kind == CondTerm::Kind::kNodeTag ||
           t->kind == CondTerm::Kind::kNodeContent) &&
          t->node_label != root_label_ && index_of(t->node_label) <= 0) {
        return nullptr;  // unresolvable label: evaluation would error
      }
    }
    if (anchor != nullptr) continue;
    Slot sa, sb;
    bool ca, cb;
    if (slot_of(e.cond->lhs, &sa, &ca) && slot_of(e.cond->rhs, &sb, &cb) &&
        sa.subtree != sb.subtree) {
      anchor = e.cond;
      lhs_slot = sa;
      rhs_slot = sb;
      lhs_content = ca;
      rhs_content = cb;
    }
  }
  if (anchor == nullptr) return nullptr;

  // Collect each eligible document's distinct values under the two anchor
  // slots, into one dense value universe. Value identity is text identity
  // (the interned id): ~ verdicts depend only on the texts, so typed
  // contents need no special-casing. Store-pruned documents have empty
  // posting lists and empty sets; documents without symbol ids stay
  // outside the filter (their pairs are never skipped).
  std::vector<SymbolId> values;
  std::unordered_map<SymbolId, uint32_t> dense;
  struct DocSets {
    bool eligible = false;
    std::vector<uint32_t> lhs, rhs;
  };
  std::vector<DocSets> sets(docs.size());
  auto collect = [&](const TwigDoc& d, const Slot& slot, bool content,
                     std::vector<uint32_t>* out) -> bool {
    for (const auto& tuple : d.tuples[slot.subtree]) {
      const NodeId v = tuple[slot.depth];
      const SymbolId sym =
          content ? d.tree->ContentId(v) : d.tree->TagId(v);
      auto [it, inserted] =
          dense.emplace(sym, static_cast<uint32_t>(values.size()));
      if (inserted) {
        if (values.size() >= kMaxFilterValues) return false;
        values.push_back(sym);
      }
      out->push_back(it->second);
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
    return true;
  };
  for (size_t i = 0; i < docs.size(); ++i) {
    const TwigDoc& d = *docs[i];
    if (d.prepared && (d.tree == nullptr || !d.tree->HasSymbolIds())) {
      continue;
    }
    if (d.prepared) {
      if (!collect(d, lhs_slot, lhs_content, &sets[i].lhs) ||
          !collect(d, rhs_slot, rhs_content, &sets[i].rhs)) {
        return nullptr;  // universe cap exceeded
      }
    }
    sets[i].eligible = true;
  }

  // Compatibility closure over the universe: bucketed pairs via the
  // oracle's bucket contract, pairs involving a free value via pairwise
  // SimilarSym. compat[i] bit j <=> Similar(value i, value j); the
  // relation is symmetric, and every value is compatible with itself
  // (equal text).
  const size_t value_count = values.size();
  const size_t words = (value_count + 63) / 64;
  Interner& interner = Interner::Global();
  std::vector<std::string> texts(value_count);
  for (size_t i = 0; i < value_count; ++i) {
    texts[i] = std::string(interner.Text(values[i]));
  }
  std::unordered_map<uint64_t, std::vector<uint32_t>> members;
  std::vector<uint32_t> free_values;
  for (uint32_t i = 0; i < value_count; ++i) {
    std::vector<uint64_t> buckets = oracle_->CompatBuckets(texts[i]);
    if (buckets.empty()) {
      free_values.push_back(i);
    } else {
      for (uint64_t b : buckets) members[b].push_back(i);
    }
  }
  uint64_t bucket_work = 0;
  for (const auto& [b, ms] : members) {
    bucket_work += static_cast<uint64_t>(ms.size()) * ms.size();
  }
  if (bucket_work > kMaxBucketPairWork ||
      static_cast<uint64_t>(free_values.size()) * value_count >
          kMaxFreePairChecks) {
    return nullptr;
  }
  std::vector<TwigValueFilter::Bits> compat(
      value_count, TwigValueFilter::Bits(words, 0));
  for (uint32_t i = 0; i < value_count; ++i) SetBit(compat[i], i);
  for (const auto& [b, ms] : members) {
    for (uint32_t i : ms) {
      for (uint32_t j : ms) SetBit(compat[i], j);
    }
  }
  for (uint32_t i : free_values) {
    for (uint32_t j = 0; j < value_count; ++j) {
      if (j == i) continue;
      if (oracle_->SimilarSym(values[i], texts[i], values[j], texts[j])) {
        SetBit(compat[i], j);
        SetBit(compat[j], i);
      }
    }
  }

  std::unique_ptr<TwigValueFilter> f(new TwigValueFilter());
  for (size_t i = 0; i < docs.size(); ++i) {
    if (!sets[i].eligible) continue;
    TwigValueFilter::DocBits db;
    db.rhs.assign(words, 0);
    db.compat_lhs.assign(words, 0);
    for (uint32_t v : sets[i].rhs) SetBit(db.rhs, v);
    for (uint32_t v : sets[i].lhs) OrInto(db.compat_lhs, compat[v]);
    docs[i]->value_slot = static_cast<uint32_t>(f->docs_.size());
    f->docs_.push_back(std::move(db));
  }
  return f;
}

Result<bool> TwigJoiner::EvalRootPrefilters() const {
  auto it = prefilters_.find(root_label_);
  if (it == prefilters_.end()) return true;
  LabelMap mapping;
  mapping.Set(root_label_, 0);
  EmbeddingView view{&product_root_, &mapping};
  for (const Condition* atom : it->second) {
    TOSS_ASSIGN_OR_RETURN(bool ok, EvalCondition(*atom, view, *semantics_));
    if (!ok) return false;
  }
  return true;
}

Result<TreeCollection> TwigJoiner::JoinLeft(
    const TwigDoc& left, const std::vector<const TwigDoc*>& rights,
    bool combos_enabled, bool first_part,
    const TwigValueFilter* value_filter, const CancelToken* cancel,
    TwigJoinStats* stats) const {
  TreeCollection out;
  // The per-part dedup of JoinTreeWithRight: empty trees dropped, the
  // first of equal trees wins.
  TreeDeduper dedup(&out);
  TwigMerger merger(*this, left, cancel, stats, &dedup);
  for (size_t r = 0; r < rights.size(); ++r) {
    TOSS_RETURN_NOT_OK(CheckCancel(cancel));
    const TwigDoc& right = *rights[r];
    if (combos_enabled) {
      // A right document with no postings can only re-derive all-from-left
      // mappings, each already produced by the r == 0 pair with a
      // byte-identical witness -- skipping the walk drops only duplicates.
      // (With an SL-expanded root the witness embeds the right document, so
      // every pair must be walked.)
      bool merge = r == 0 || right.HasPostings() || root_in_expand_;
      bool value_skip = false;
      if (merge && value_filter != nullptr && !first_part && r > 0 &&
          value_filter->CanSkipPair(left, right)) {
        // No mixed mapping can satisfy the anchor ~ atom for this pair,
        // and the pure-side mappings are duplicates: all-left was emitted
        // by this part's r == 0 pair, all-right by the first part (which
        // never value-skips). Nothing this merge could emit survives
        // dedup, and the residue is error-free by construction.
        merge = false;
        value_skip = true;
      }
      if (merge) {
        stats->pairs_scanned.fetch_add(1, std::memory_order_relaxed);
        TOSS_RETURN_NOT_OK(merger.MergePair(right));
      } else if (value_skip) {
        stats->pairs_value_skipped.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats->pairs_pruned.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Group order within a pair follows ascending root image in the product
    // tree: product root (cross-tree mappings), then the left copy, then
    // the right copy. Left-side embeddings repeat for r > 0 and would be
    // dedup'd, so they are emitted for the first pair only.
    if (r == 0) {
      for (size_t i = 0; i < left.inside.size(); ++i) {
        dedup.AddCopy(left.inside[i], left.inside_hashes[i]);
      }
    }
    for (size_t i = 0; i < right.inside.size(); ++i) {
      dedup.AddCopy(right.inside[i], right.inside_hashes[i]);
    }
  }
  merger.Flush();
  return out;
}

}  // namespace toss::tax
