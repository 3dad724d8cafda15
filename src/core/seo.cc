#include "core/seo.h"

#include <set>

#include "common/string_util.h"

namespace toss::core {

using ontology::HNodeId;
using ontology::Hierarchy;
using ontology::kInvalidHNode;

namespace {

/// Ontology terms are stored lowercase by the Ontology Maker for content
/// strings but verbatim for tags; normalize lookups across both.
std::vector<HNodeId> LookupTerm(const Hierarchy& h, const std::string& term) {
  auto ids = h.NodesContaining(term);
  if (!ids.empty()) return ids;
  return h.NodesContaining(ToLower(term));
}

bool HasUpperAscii(std::string_view s) {
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') return true;
  }
  return false;
}

}  // namespace

const Hierarchy* Seo::EnhancedHierarchy(const std::string& relation) const {
  auto it = enhancements_.find(relation);
  return it == enhancements_.end() ? nullptr : &it->second.enhanced;
}

const ontology::SimilarityEnhancement* Seo::Enhancement(
    const std::string& relation) const {
  auto it = enhancements_.find(relation);
  return it == enhancements_.end() ? nullptr : &it->second;
}

bool Seo::Similar(const std::string& x, const std::string& y) const {
  if (x == y) return true;
  const Hierarchy* h = EnhancedHierarchy(ontology::kIsa);
  if (h != nullptr) {
    auto xs = LookupTerm(*h, x);
    auto ys = LookupTerm(*h, y);
    if (!xs.empty() && !ys.empty()) {
      // Def. of ~: some enhanced node contains both.
      std::set<HNodeId> sx(xs.begin(), xs.end());
      for (HNodeId ny : ys) {
        if (sx.count(ny)) return true;
      }
      return false;
    }
  }
  // Fallback for terms outside the ontology (see header).
  if (measure_ == nullptr) return false;
  return measure_->BoundedDistance(ToLower(x), ToLower(y), epsilon_) <=
         epsilon_;
}

const std::vector<HNodeId>* Seo::LookupSym(
    const std::unordered_map<SymbolId, std::vector<HNodeId>>& relation_index,
    SymbolId sym, std::string_view term) const {
  // Exact lookup. The index interned every hierarchy term, so a term the
  // dictionary has never seen is provably not in the hierarchy.
  Interner& interner = Interner::Global();
  if (sym == kInvalidSymbol) {
    if (auto found = interner.Find(term)) sym = *found;
  }
  if (sym != kInvalidSymbol) {
    auto it = relation_index.find(sym);
    if (it != relation_index.end()) return &it->second;
  }
  // Lowercase fallback (see LookupTerm): only worth a Find when lowering
  // can change the term at all.
  if (!HasUpperAscii(term)) return nullptr;
  auto lowered = interner.Find(ToLower(std::string(term)));
  if (!lowered.has_value()) return nullptr;
  auto it = relation_index.find(*lowered);
  return it == relation_index.end() ? nullptr : &it->second;
}

bool Seo::SimilarSym(SymbolId sx, const std::string& x, SymbolId sy,
                     const std::string& y) const {
  auto index = term_index_;
  if (index == nullptr) return Similar(x, y);
  if (sx != kInvalidSymbol && sx == sy) return true;  // equal text
  if (x == y) return true;  // ids may be missing on either side
  auto rel = index->by_relation.find(ontology::kIsa);
  if (rel != index->by_relation.end()) {
    const auto* xs = LookupSym(rel->second, sx, x);
    const auto* ys = LookupSym(rel->second, sy, y);
    if (xs != nullptr && ys != nullptr) {
      // Def. of ~: some enhanced node contains both. Both lists ascend.
      auto ix = xs->begin();
      auto iy = ys->begin();
      while (ix != xs->end() && iy != ys->end()) {
        if (*ix == *iy) return true;
        (*ix < *iy) ? ++ix : ++iy;
      }
      return false;
    }
  }
  if (measure_ == nullptr) return false;
  return measure_->BoundedDistance(ToLower(x), ToLower(y), epsilon_) <=
         epsilon_;
}

bool Seo::LeqSym(const std::string& relation, SymbolId sx,
                 const std::string& x, SymbolId sy,
                 const std::string& y) const {
  auto index = term_index_;
  if (index == nullptr) return Leq(relation, x, y);
  auto rel = index->by_relation.find(relation);
  if (rel == index->by_relation.end()) return false;  // no such hierarchy
  const Hierarchy* h = EnhancedHierarchy(relation);
  const auto* xs = LookupSym(rel->second, sx, x);
  const auto* ys = LookupSym(rel->second, sy, y);
  if (xs == nullptr || ys == nullptr) return false;
  for (HNodeId nx : *xs) {
    for (HNodeId ny : *ys) {
      if (h->Leq(nx, ny)) return true;
    }
  }
  return false;
}

std::vector<HNodeId> Seo::SimilarityNodes(const std::string& term) const {
  const Hierarchy* h = EnhancedHierarchy(ontology::kIsa);
  if (h == nullptr) return {};
  return LookupTerm(*h, term);
}

bool Seo::Leq(const std::string& relation, const std::string& x,
              const std::string& y) const {
  const Hierarchy* h = EnhancedHierarchy(relation);
  if (h == nullptr) return false;
  for (HNodeId nx : LookupTerm(*h, x)) {
    for (HNodeId ny : LookupTerm(*h, y)) {
      if (h->Leq(nx, ny)) return true;
    }
  }
  return false;
}

std::vector<std::string> Seo::SimilarTerms(const std::string& term) const {
  std::set<std::string> out{term};
  const Hierarchy* h = EnhancedHierarchy(ontology::kIsa);
  if (h != nullptr) {
    auto nodes = LookupTerm(*h, term);
    if (!nodes.empty()) {
      for (HNodeId id : nodes) {
        for (const auto& t : h->terms(id)) out.insert(t);
      }
    } else if (measure_ != nullptr) {
      // The query literal is not an ontology term: fall back to comparing
      // it against every term (the paper's option (i) when a string is
      // outside the enhancement), on lowercased forms as Similar does.
      const std::string lowered = ToLower(term);
      for (const auto& t : h->AllTerms()) {
        if (measure_->BoundedDistance(lowered, ToLower(t), epsilon_) <=
            epsilon_) {
          out.insert(t);
        }
      }
    }
  }
  return {out.begin(), out.end()};
}

std::vector<std::string> Seo::TermsBelow(const std::string& relation,
                                         const std::string& term) const {
  std::set<std::string> out{term};
  const Hierarchy* h = EnhancedHierarchy(relation);
  if (h != nullptr) {
    for (HNodeId id : LookupTerm(*h, term)) {
      for (HNodeId below : h->Below(id)) {
        for (const auto& t : h->terms(below)) out.insert(t);
      }
    }
  }
  return {out.begin(), out.end()};
}

size_t Seo::TotalNodeCount() const {
  size_t n = 0;
  for (const auto& [rel, enh] : enhancements_) n += enh.enhanced.node_count();
  return n;
}

void Seo::WarmCaches() const {
  for (const auto& rel : fused_.relations()) {
    fused_.Find(rel)->EnsureReachabilityCache();
  }
  for (const auto& [rel, enh] : enhancements_) {
    enh.enhanced.EnsureReachabilityCache();
    enh.BuildPreimageIndex();
  }
  // Intern every enhanced-hierarchy term into the id-keyed index behind
  // SimilarSym/LeqSym. Node ids ascend in the outer loop and terms are
  // deduplicated per node, so each vector is born sorted and unique.
  auto index = std::make_shared<TermIndex>();
  Interner& interner = Interner::Global();
  for (const auto& [rel, enh] : enhancements_) {
    auto& relation_index = index->by_relation[rel];
    const Hierarchy& h = enh.enhanced;
    for (HNodeId id = 0; id < h.node_count(); ++id) {
      for (const auto& term : h.terms(id)) {
        SymbolId sym = interner.Intern(term);
        if (sym == kInvalidSymbol) return;  // dictionary full: no index
        relation_index[sym].push_back(id);
      }
    }
  }
  term_index_ = std::move(index);
}

SeoBuilder::SeoBuilder() = default;

SeoBuilder& SeoBuilder::AddInstanceOntology(ontology::Ontology onto) {
  ontologies_.push_back(std::move(onto));
  return *this;
}

SeoBuilder& SeoBuilder::AddConstraints(
    const std::string& relation,
    std::vector<ontology::InteropConstraint> cs) {
  auto& dst = constraints_[relation];
  dst.insert(dst.end(), std::make_move_iterator(cs.begin()),
             std::make_move_iterator(cs.end()));
  return *this;
}

SeoBuilder& SeoBuilder::SetMeasure(sim::StringMeasurePtr measure) {
  measure_ = std::move(measure);
  return *this;
}

SeoBuilder& SeoBuilder::SetEpsilon(double epsilon) {
  epsilon_ = epsilon;
  return *this;
}

Result<Seo> SeoBuilder::Build() const {
  if (ontologies_.empty()) {
    return Status::InvalidArgument("SeoBuilder: no instance ontologies");
  }
  if (measure_ == nullptr) {
    return Status::InvalidArgument("SeoBuilder: no similarity measure set");
  }
  if (epsilon_ < 0) {
    return Status::InvalidArgument("SeoBuilder: epsilon must be >= 0");
  }
  std::vector<const ontology::Ontology*> ptrs;
  ptrs.reserve(ontologies_.size());
  for (const auto& o : ontologies_) ptrs.push_back(&o);

  Seo seo;
  TOSS_ASSIGN_OR_RETURN(seo.fused_,
                        ontology::FuseOntologies(ptrs, constraints_));
  seo.measure_ = measure_;
  seo.epsilon_ = epsilon_;
  for (const auto& rel : seo.fused_.relations()) {
    const Hierarchy* h = seo.fused_.Find(rel);
    TOSS_ASSIGN_OR_RETURN(
        ontology::SimilarityEnhancement enh,
        ontology::SimilarityEnhance(*h, *measure_, epsilon_));
    seo.enhancements_[rel] = std::move(enh);
  }
  return seo;
}

Result<SeoSweeper> SeoBuilder::BuildSweeper(double max_epsilon) const {
  if (ontologies_.empty()) {
    return Status::InvalidArgument("SeoBuilder: no instance ontologies");
  }
  if (measure_ == nullptr) {
    return Status::InvalidArgument("SeoBuilder: no similarity measure set");
  }
  if (max_epsilon < 0) {
    return Status::InvalidArgument("SeoBuilder: max_epsilon must be >= 0");
  }
  std::vector<const ontology::Ontology*> ptrs;
  ptrs.reserve(ontologies_.size());
  for (const auto& o : ontologies_) ptrs.push_back(&o);

  SeoSweeper sweeper;
  TOSS_ASSIGN_OR_RETURN(sweeper.fused_,
                        ontology::FuseOntologies(ptrs, constraints_));
  sweeper.measure_ = measure_;
  sweeper.max_epsilon_ = max_epsilon;
  for (const auto& rel : sweeper.fused_.relations()) {
    const Hierarchy* h = sweeper.fused_.Find(rel);
    TOSS_ASSIGN_OR_RETURN(
        ontology::SimilaritySweep sweep,
        ontology::SimilaritySweep::Create(*h, *measure_, max_epsilon));
    sweeper.sweeps_.emplace(rel, std::move(sweep));
  }
  return sweeper;
}

Result<Seo> SeoSweeper::BuildAt(double epsilon) const {
  Seo seo;
  seo.fused_ = fused_;
  seo.measure_ = measure_;
  seo.epsilon_ = epsilon;
  for (const auto& [rel, sweep] : sweeps_) {
    TOSS_ASSIGN_OR_RETURN(ontology::SimilarityEnhancement enh,
                          sweep.Enhance(epsilon));
    seo.enhancements_[rel] = std::move(enh);
  }
  return seo;
}

}  // namespace toss::core
