#include "store/collection.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "store/key_encoding.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace toss::store {

namespace {

/// Process-wide mirrors of the per-collection decoded-tree counters, plus
/// the query counters.
struct StoreMetrics {
  obs::Counter& cache_hits =
      obs::Metrics().GetCounter("store.tree_cache.hits");
  obs::Counter& cache_misses =
      obs::Metrics().GetCounter("store.tree_cache.misses");
  obs::Counter& queries = obs::Metrics().GetCounter("store.query.count");
  obs::Counter& docs_scanned =
      obs::Metrics().GetCounter("store.query.docs_scanned");
  obs::Counter& index_pruned =
      obs::Metrics().GetCounter("store.query.index_pruned");
};

StoreMetrics& Instruments() {
  static StoreMetrics* m = new StoreMetrics();
  return *m;
}

/// Longest element content the value indexes key.
constexpr size_t kMaxIndexedValue = 256;

std::vector<DocId> Union(const std::vector<DocId>& a,
                         const std::vector<DocId>& b) {
  std::vector<DocId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// An element's own text: its direct text children, concatenated -- the
/// content tax::DataTree::FromXml decodes and evaluation compares.
std::string OwnText(const xml::XmlDocument& doc, xml::NodeId id) {
  std::string out;
  for (xml::NodeId c : doc.node(id).children) {
    if (doc.node(c).kind == xml::NodeKind::kText) out += doc.node(c).text;
  }
  return out;
}

/// Equality of a content and a plan value: a '*' in the content globs, as
/// it does when evaluation compares it with a star-free literal
/// (tax::CompareValues).
bool GlobEquals(std::string_view content, std::string_view value) {
  return content == value ||
         (Contains(content, "*") && GlobMatch(content, value));
}

bool ContentSatisfies(const std::string& content, const PlanStep& step) {
  for (const auto& group : step.any_of) {
    if (std::none_of(group.begin(), group.end(), [&](const std::string& v) {
          return GlobEquals(content, v);
        })) {
      return false;
    }
  }
  for (const auto& bound : step.bounds) {
    std::optional<int> cmp = CompareScalar(content, bound.literal);
    if (!cmp.has_value()) return false;
    bool ok = bound.op == PlanStep::Order::kLt    ? *cmp < 0
              : bound.op == PlanStep::Order::kLeq ? *cmp <= 0
              : bound.op == PlanStep::Order::kGt  ? *cmp > 0
                                                  : *cmp >= 0;
    if (!ok) return false;
  }
  for (const auto& text : step.contains) {
    if (!Contains(content, text)) return false;
  }
  return true;
}

}  // namespace

bool StepMatches(const xml::XmlDocument& doc, const PlanStep& step) {
  for (xml::NodeId id = 0; id < doc.size(); ++id) {
    const xml::XmlNode& n = doc.node(id);
    if (n.kind != xml::NodeKind::kElement) continue;
    if (n.tag != step.tag &&
        !(Contains(n.tag, "*") && GlobMatch(n.tag, step.tag))) {
      continue;
    }
    if (ContentSatisfies(OwnText(doc, id), step)) return true;
  }
  return false;
}

Result<DocId> Collection::Insert(std::string key, xml::XmlDocument doc) {
  if (doc.empty()) {
    return Status::InvalidArgument("Insert: empty document");
  }
  if (by_key_.count(key)) {
    return Status::AlreadyExists("document key '" + key +
                                 "' already present in collection '" +
                                 name_ + "'");
  }
  DocId id = Append(key, std::move(doc));
  by_key_[std::move(key)] = id;
  return id;
}

Result<DocId> Collection::InsertXml(std::string key, std::string_view text) {
  TOSS_ASSIGN_OR_RETURN(xml::XmlDocument doc, xml::Parse(text));
  return Insert(std::move(key), std::move(doc));
}

Status Collection::Remove(const std::string& key) {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    return Status::NotFound("no document with key '" + key + "'");
  }
  Retire(it->second);
  by_key_.erase(it);
  return Status::OK();
}

Result<DocId> Collection::Replace(const std::string& key,
                                  xml::XmlDocument doc) {
  if (doc.empty()) {
    return Status::InvalidArgument("Replace: empty document");
  }
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    return Status::NotFound("no document with key '" + key + "'");
  }
  Retire(it->second);
  it->second = Append(key, std::move(doc));
  return it->second;
}

Result<DocId> Collection::FindKey(const std::string& key) const {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    return Status::NotFound("no document with key '" + key + "'");
  }
  return it->second;
}

std::vector<DocId> Collection::AllDocs() const {
  std::vector<DocId> out;
  out.reserve(docs_.size());
  for (const auto& [id, entry] : docs_) out.push_back(id);
  return out;
}

DocId Collection::Append(std::string key, xml::XmlDocument doc) {
  const DocId id = next_id_++;
  docs_.emplace(id, Entry{std::move(key), std::move(doc)});
  UpdatePostings(id, /*add=*/true);
  return id;
}

void Collection::Retire(DocId id) {
  UpdatePostings(id, /*add=*/false);
  auto it = docs_.find(id);
  std::lock_guard<std::mutex> lock(tree_mu_);
  if (it->second.tree != nullptr) --tree_stats_.entries;
  docs_.erase(it);
}

void Collection::UpdatePostings(DocId id, bool add) {
  const xml::XmlDocument& doc = docs_.at(id).doc;
  Interner& interner = Interner::Global();
  // `id` is the largest id any posting holds when it is added, so adding
  // appends (once per document) and keeps the posting sorted.
  auto insert = [id](std::vector<DocId>& posting) {
    if (posting.empty() || posting.back() != id) posting.push_back(id);
  };
  auto erase = [id](std::vector<DocId>& posting) {
    auto it = std::lower_bound(posting.begin(), posting.end(), id);
    if (it != posting.end() && *it == id) posting.erase(it);
  };
  // Adds `id` to index[key], or erases it and drops the emptied posting.
  auto update = [&](auto& index, const auto& key) {
    if (add) {
      insert(index[key]);
      return;
    }
    auto it = index.find(key);
    if (it == index.end()) return;
    erase(it->second);
    if (it->second.empty()) index.erase(it);
  };
  if (!add) {
    erase(unindexed_tag_docs_);
    erase(wildcard_tag_docs_);
  }
  std::vector<xml::NodeId> elements{doc.root()};
  auto descendants = doc.ElementDescendants(doc.root());
  elements.insert(elements.end(), descendants.begin(), descendants.end());
  for (xml::NodeId nid : elements) {
    const auto& n = doc.node(nid);
    // Tags join the process dictionary when indexed; the tag index is
    // id-keyed. Dictionary overflow (2^26 terms) degrades to the
    // conservative unindexed set instead of corrupting a shared
    // kInvalidSymbol bucket. Ids are never reused, so removal finds the
    // same id (or none) without growing the dictionary.
    std::optional<SymbolId> tag_sym;
    if (!add) {
      tag_sym = interner.Find(n.tag);
    } else if (SymbolId sym = interner.Intern(n.tag); sym != kInvalidSymbol) {
      tag_sym = sym;
    }
    if (tag_sym.has_value()) {
      update(tag_index_, *tag_sym);
    } else if (add) {
      insert(unindexed_tag_docs_);
    }
    if (add && Contains(n.tag, "*")) insert(wildcard_tag_docs_);
    // Value indexes: the element's text content (leaf-style values).
    const std::string content = doc.TextContent(nid);
    const std::string own = OwnText(doc, nid);
    if (tag_sym.has_value() &&
        (own != content || own.empty() || own.size() > kMaxIndexedValue ||
         Contains(own, "*"))) {
      update(irregular_docs_, *tag_sym);
    }
    if (!content.empty() && content.size() <= kMaxIndexedValue) {
      update(value_index_, ValueKey(n.tag, content));
      if (auto nkey = NumericKey(n.tag, content)) update(numeric_index_, *nkey);
    }
    for (const auto& tok : TokenizeWords(content)) update(term_index_, tok);
  }
}

Result<std::vector<DocId>> Collection::DocsWithValueInRange(
    std::string_view tag, const std::optional<std::string>& lo,
    const std::optional<std::string>& hi) const {
  bool numeric = true;
  long long scratch;
  for (const auto* bound : {&lo, &hi}) {
    if (!bound->has_value()) continue;
    if (!ParseInt(**bound, &scratch)) {
      numeric = false;
      double d;
      if (ParseDouble(**bound, &d)) {
        return Status::Unsupported(
            "range scans over non-integer numeric bounds");
      }
    }
  }
  // Only integer-valued contents can satisfy an integer-bounded ordering
  // (CompareScalar treats mixed representations as incomparable), so the
  // numeric index is complete for such a query.
  const ValueIndex& index = numeric ? numeric_index_ : value_index_;
  auto key = [&](const std::string& bound) {
    return numeric ? *NumericKey(tag, bound) : ValueKey(tag, bound);
  };
  // Keys in [lo, hi], or from lo to the end of the tag's keys.
  const std::string scan_lo = lo.has_value() ? key(*lo) : ValueKey(tag, "");
  const std::string scan_hi = hi.has_value() ? key(*hi) : TagPrefixEnd(tag);
  auto first = index.lower_bound(scan_lo);
  auto last = scan_hi < scan_lo   ? first
              : hi.has_value()    ? index.upper_bound(scan_hi)
                                  : index.lower_bound(scan_hi);
  std::vector<DocId> out;
  for (auto it = first; it != last; ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  if (auto sym = Interner::Global().Find(tag)) {
    auto it = irregular_docs_.find(*sym);
    if (it != irregular_docs_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<DocId> Collection::DocsWithAnyTagIds(
    const std::vector<SymbolId>& tags) const {
  // Tag postings hold live docs only (removal erases them), so the union
  // needs no liveness re-check.
  std::vector<DocId> docs = unindexed_tag_docs_;
  for (SymbolId tag : tags) {
    auto it = tag_index_.find(tag);
    if (it != tag_index_.end()) docs = Union(docs, it->second);
  }
  return docs;
}

std::vector<DocId> Collection::DocsWithWildcardTag() const {
  return Union(wildcard_tag_docs_, unindexed_tag_docs_);
}

std::string PlanStep::ToString() const {
  std::string out = "//" + tag;
  for (const auto& group : any_of) {
    std::string disjunction;
    for (const auto& value : group) {
      if (!disjunction.empty()) disjunction += " or ";
      disjunction += ". = '" + value + "'";
    }
    out += group.size() > 1 ? "[(" + disjunction + ")]"
                            : "[" + disjunction + "]";
  }
  for (const auto& bound : bounds) {
    const char* op = bound.op == Order::kLt    ? "<"
                     : bound.op == Order::kLeq ? "<="
                     : bound.op == Order::kGt  ? ">"
                                               : ">=";
    out += std::string("[. ") + op + " '" + bound.literal + "']";
  }
  for (const auto& text : contains) out += "[contains(., '" + text + "')]";
  return out;
}

struct Collection::StepPostings {
  using Posting = std::vector<DocId>;

  const Posting* tagged = nullptr;  ///< null: no indexed document
  /// With any-of groups: the postings of the 1-256 byte values that every
  /// group holds (one element must equal a value of each group).
  std::optional<std::vector<const Posting*>> values;
  std::vector<Posting> ranges;        ///< range scans, ascending
  std::vector<const Posting*> words;  ///< enclosed-word postings
  bool missing_word = false;  ///< some enclosed word is in no document
  /// Documents the postings cannot decide (ascending): unclassifiable
  /// tags, and for steps with predicates the tag's irregular documents.
  std::vector<DocId> unsure;
  /// The postings decide every document outside `unsure`.
  bool exact = false;

  /// `id` passes every posting (sound for documents outside `unsure`).
  /// A value posting lists only documents of the tag posting or of
  /// `unsure`, so with any-of groups the value check stands in for the tag
  /// check.
  bool Regular(DocId id) const {
    if (tagged == nullptr || missing_word) return false;
    if (values.has_value()) {
      if (std::none_of(values->begin(), values->end(),
                       [id](const Posting* p) { return Holds(*p, id); })) {
        return false;
      }
    } else if (!Holds(*tagged, id)) {
      return false;
    }
    return InRangesAndWords(id);
  }
  bool Unsure(DocId id) const { return Holds(unsure, id); }
  bool Admits(DocId id) const { return Unsure(id) || Regular(id); }
  bool NeedsCheck(DocId id) const { return !exact || Unsure(id); }

  /// Upper bound on the admitted documents: the smallest posting.
  size_t Estimate() const {
    if (tagged == nullptr || missing_word) return unsure.size();
    size_t best = Smallest()->size();
    if (values.has_value()) best = std::min(best, ValuesSize());
    return best + unsure.size();
  }

  /// Every admitted document, ascending: the smallest posting, filtered.
  std::vector<DocId> Admitted() const {
    if (tagged == nullptr || missing_word) return unsure;
    if (!values.has_value() && ranges.empty() && words.empty()) {
      // The tag posting is the step's only posting: it admits itself.
      return Union(*tagged, unsure);
    }
    const Posting* best = Smallest();
    Posting regular;
    if (values.has_value() && ValuesSize() < best->size()) {
      // The value postings' union passes the value check by construction.
      for (const Posting* p : *values) {
        regular.insert(regular.end(), p->begin(), p->end());
      }
      std::sort(regular.begin(), regular.end());
      regular.erase(std::unique(regular.begin(), regular.end()),
                    regular.end());
      std::erase_if(regular,
                    [this](DocId id) { return !InRangesAndWords(id); });
    } else {
      std::copy_if(best->begin(), best->end(), std::back_inserter(regular),
                   [this](DocId id) { return Regular(id); });
    }
    return Union(regular, unsure);
  }

 private:
  static bool Holds(const Posting& posting, DocId id) {
    return std::binary_search(posting.begin(), posting.end(), id);
  }

  bool InRangesAndWords(DocId id) const {
    for (const Posting& range : ranges) {
      if (!Holds(range, id)) return false;
    }
    return std::all_of(words.begin(), words.end(),
                       [id](const Posting* p) { return Holds(*p, id); });
  }

  /// The smallest of the tag, range and word postings.
  const Posting* Smallest() const {
    const Posting* best = tagged;
    for (const Posting& range : ranges) {
      if (range.size() < best->size()) best = &range;
    }
    for (const Posting* p : words) {
      if (p->size() < best->size()) best = p;
    }
    return best;
  }

  /// Size of the union of the value postings, bounded by their sum.
  size_t ValuesSize() const {
    size_t size = 0;
    for (const Posting* p : *values) size += p->size();
    return size;
  }
};

Collection::StepPostings Collection::Resolve(const PlanStep& step) const {
  StepPostings out;
  const std::optional<SymbolId> sym = Interner::Global().Find(step.tag);
  if (sym.has_value()) {
    auto it = tag_index_.find(*sym);
    if (it != tag_index_.end()) out.tagged = &it->second;
  }
  out.unsure = DocsWithWildcardTag();
  if (step.any_of.empty() && step.bounds.empty() && step.contains.empty()) {
    // A bare tag step: its tag posting is its answer.
    out.exact = true;
    if (out.tagged != nullptr) {
      std::erase_if(out.unsure, [&](DocId id) {
        return std::binary_search(out.tagged->begin(), out.tagged->end(), id);
      });
    }
    return out;
  }
  if (sym.has_value()) {
    auto it = irregular_docs_.find(*sym);
    if (it != irregular_docs_.end()) {
      out.unsure = Union(out.unsure, it->second);
    }
  }
  // Outside `unsure`, every `tag` element's content is 1-256 bytes, free of
  // '*', and keyed as it is by the value index and the term index; so a
  // step whose only predicates are any-of groups is exactly the union of
  // the value postings of the values all its groups hold.
  out.exact = step.bounds.empty() && step.contains.empty();
  if (!step.any_of.empty()) {
    std::vector<std::string> common = step.any_of[0];
    std::sort(common.begin(), common.end());
    for (size_t g = 1; g < step.any_of.size(); ++g) {
      std::vector<std::string> group = step.any_of[g];
      std::sort(group.begin(), group.end());
      std::vector<std::string> both;
      std::set_intersection(common.begin(), common.end(), group.begin(),
                            group.end(), std::back_inserter(both));
      common = std::move(both);
    }
    auto& postings = out.values.emplace();
    for (const auto& value : common) {
      if (value.empty() || value.size() > kMaxIndexedValue) continue;
      auto it = value_index_.find(ValueKey(step.tag, value));
      if (it != value_index_.end()) postings.push_back(&it->second);
    }
  }
  for (const auto& bound : step.bounds) {
    // Strict bounds relax to inclusive ones; non-integer numeric bounds
    // cannot be scanned and do not prune.
    std::optional<std::string> lo, hi;
    if (bound.op == PlanStep::Order::kLt || bound.op == PlanStep::Order::kLeq) {
      hi = bound.literal;
    } else {
      lo = bound.literal;
    }
    auto docs = DocsWithValueInRange(step.tag, lo, hi);
    if (docs.ok()) out.ranges.push_back(std::move(docs).value());
  }
  for (const auto& text : step.contains) {
    for (const auto& word : EnclosedWords(text)) {
      auto it = term_index_.find(word);
      if (it == term_index_.end()) {
        out.missing_word = true;
      } else {
        out.words.push_back(&it->second);
      }
    }
  }
  return out;
}

std::vector<DocId> Collection::PlanDocs(
    const PushdownPlan& plan, QueryStats* stats,
    std::vector<PlanStepStats>* step_stats) const {
  std::vector<StepPostings> steps;
  steps.reserve(plan.size());
  std::vector<std::pair<size_t, size_t>> order;  // (estimate, step)
  for (size_t i = 0; i < plan.size(); ++i) {
    steps.push_back(Resolve(plan[i]));
    order.emplace_back(steps.back().Estimate(), i);
  }
  std::stable_sort(
      order.begin(), order.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  // Postings first, smallest step first: the first step enumerates its
  // admitted documents, each later one filters the survivors by probing.
  std::vector<DocId> docs = plan.empty() ? AllDocs() : std::vector<DocId>{};
  std::vector<size_t> after(plan.size(), 0);
  for (size_t k = 0; k < order.size(); ++k) {
    const StepPostings& step = steps[order[k].second];
    if (k == 0) {
      docs = step.Admitted();
    } else {
      std::erase_if(docs, [&](DocId id) { return !step.Admits(id); });
    }
    after[order[k].second] = docs.size();
  }
  // Then the element checks, only on documents every step admitted, and
  // only for the steps whose postings could not decide them.
  size_t scanned = 0;
  for (const auto& [estimate, i] : order) {
    size_t checked = 0;
    std::erase_if(docs, [&](DocId id) {
      if (!steps[i].NeedsCheck(id)) return false;
      ++checked;
      return !StepMatches(docs_.at(id).doc, plan[i]);
    });
    scanned += checked;
    if (step_stats != nullptr) {
      step_stats->push_back({i, after[i], checked});
    }
  }
  StoreMetrics& m = Instruments();
  m.queries.Increment();
  m.docs_scanned.Add(scanned);
  if (!plan.empty()) m.index_pruned.Increment();
  if (stats != nullptr) {
    stats->candidate_docs = docs.size();
    stats->scanned_docs = scanned;
    stats->total_docs = docs_.size();
  }
  return docs;
}

Collection::Stats Collection::GetStats() const {
  Stats stats;
  stats.live_docs = docs_.size();
  stats.tag_index_entries = tag_index_.size();
  stats.term_index_entries = term_index_.size();
  stats.value_index_keys = value_index_.size();
  stats.numeric_index_keys = numeric_index_.size();
  stats.approx_bytes = ApproxByteSize();
  return stats;
}

size_t Collection::ApproxByteSize() const {
  size_t total = 0;
  for (const auto& [id, entry] : docs_) total += xml::Write(entry.doc).size();
  return total;
}

std::shared_ptr<const tax::DataTree> Collection::DecodedTree(DocId id) const {
  StoreMetrics& m = Instruments();
  const Entry& entry = docs_.at(id);
  {
    std::lock_guard<std::mutex> lock(tree_mu_);
    if (entry.tree != nullptr) {
      ++tree_stats_.hits;
      m.cache_hits.Increment();
      return entry.tree;
    }
    ++tree_stats_.misses;
    m.cache_misses.Increment();
  }
  // Decode outside the lock: FromXml dominates the cost.
  auto tree = std::make_shared<const tax::DataTree>(
      tax::DataTree::FromXml(entry.doc, entry.doc.root()));
  std::lock_guard<std::mutex> lock(tree_mu_);
  if (entry.tree == nullptr) {
    entry.tree = std::move(tree);
    ++tree_stats_.entries;
  }
  return entry.tree;
}

Collection::TreeCacheStats Collection::GetTreeCacheStats() const {
  std::lock_guard<std::mutex> lock(tree_mu_);
  return tree_stats_;
}

}  // namespace toss::store
