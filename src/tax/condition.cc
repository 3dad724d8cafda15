#include "tax/condition.h"

#include <algorithm>
#include <set>

namespace toss::tax {

std::optional<bool> SymbolTextEquality(const TermValue& x,
                                       const TermValue& y) {
  if (x.symbol == kInvalidSymbol || y.symbol == kInvalidSymbol) {
    return std::nullopt;
  }
  return x.symbol == y.symbol;
}

std::optional<bool> SymbolGlobEquality(const TermValue& x,
                                       const TermValue& y) {
  if (x.symbol == kInvalidSymbol || y.symbol == kInvalidSymbol) {
    return std::nullopt;
  }
  if (x.symbol == y.symbol) return true;
  Interner& interner = Interner::Global();
  if (interner.HasStar(x.symbol) || interner.HasStar(y.symbol)) {
    return std::nullopt;  // distinct texts, but globbing may still match
  }
  return false;
}

const char* CondOpName(CondOp op) {
  switch (op) {
    case CondOp::kEq:
      return "=";
    case CondOp::kNeq:
      return "!=";
    case CondOp::kLt:
      return "<";
    case CondOp::kLeq:
      return "<=";
    case CondOp::kGt:
      return ">";
    case CondOp::kGeq:
      return ">=";
    case CondOp::kSimilar:
      return "~";
    case CondOp::kInstanceOf:
      return "instance_of";
    case CondOp::kIsa:
      return "isa";
    case CondOp::kSubtypeOf:
      return "subtype_of";
    case CondOp::kPartOf:
      return "part_of";
    case CondOp::kAbove:
      return "above";
    case CondOp::kBelow:
      return "below";
  }
  return "?";
}

CondTerm TagOf(int label) {
  CondTerm t;
  t.kind = CondTerm::Kind::kNodeTag;
  t.node_label = label;
  return t;
}

CondTerm ContentOf(int label) {
  CondTerm t;
  t.kind = CondTerm::Kind::kNodeContent;
  t.node_label = label;
  return t;
}

CondTerm TypeName(std::string name) {
  CondTerm t;
  t.kind = CondTerm::Kind::kTypeName;
  t.text = std::move(name);
  return t;
}

CondTerm Value(std::string text, std::string type) {
  CondTerm t;
  t.kind = CondTerm::Kind::kTypedValue;
  t.text = std::move(text);
  t.value_type = std::move(type);
  // String literals join the process dictionary once, at construction, so
  // every later evaluation compares ids. Typed literals keep their text:
  // they flow through type conversion, not string equality.
  if (t.value_type.empty() || t.value_type == kStringType) {
    t.symbol = Interner::Global().Intern(t.text);
  }
  return t;
}

Condition Condition::True() {
  Condition c;
  c.kind = Kind::kTrue;
  return c;
}

Condition Condition::Atom(CondTerm lhs, CondOp op, CondTerm rhs) {
  Condition c;
  c.kind = Kind::kAtom;
  c.lhs = std::move(lhs);
  c.op = op;
  c.rhs = std::move(rhs);
  return c;
}

Condition Condition::And(std::vector<Condition> cs) {
  if (cs.empty()) return True();
  if (cs.size() == 1) return std::move(cs[0]);
  Condition c;
  c.kind = Kind::kAnd;
  for (auto& child : cs) {
    c.children.push_back(std::make_shared<Condition>(std::move(child)));
  }
  return c;
}

Condition Condition::Or(std::vector<Condition> cs) {
  if (cs.empty()) return True();
  if (cs.size() == 1) return std::move(cs[0]);
  Condition c;
  c.kind = Kind::kOr;
  for (auto& child : cs) {
    c.children.push_back(std::make_shared<Condition>(std::move(child)));
  }
  return c;
}

Condition Condition::Not(Condition inner) {
  Condition c;
  c.kind = Kind::kNot;
  c.children.push_back(std::make_shared<Condition>(std::move(inner)));
  return c;
}

namespace {

void CollectLabels(const Condition& c, std::set<int>* out) {
  if (c.kind == Condition::Kind::kAtom) {
    for (const CondTerm* t : {&c.lhs, &c.rhs}) {
      if (t->kind == CondTerm::Kind::kNodeTag ||
          t->kind == CondTerm::Kind::kNodeContent) {
        out->insert(t->node_label);
      }
    }
  }
  for (const auto& child : c.children) CollectLabels(*child, out);
}

std::string TermToString(const CondTerm& t) {
  switch (t.kind) {
    case CondTerm::Kind::kNodeTag:
      return "$" + std::to_string(t.node_label) + ".tag";
    case CondTerm::Kind::kNodeContent:
      return "$" + std::to_string(t.node_label) + ".content";
    case CondTerm::Kind::kTypeName:
      return t.text;
    case CondTerm::Kind::kTypedValue: {
      std::string out = "\"";
      for (char ch : t.text) {
        if (ch == '"' || ch == '\\') out += '\\';
        out += ch;
      }
      out += '"';
      if (!t.value_type.empty()) out += ":" + t.value_type;
      return out;
    }
  }
  return "?";
}

}  // namespace

std::vector<int> Condition::ReferencedLabels() const {
  std::set<int> labels;
  CollectLabels(*this, &labels);
  return {labels.begin(), labels.end()};
}

std::string Condition::ToString() const {
  switch (kind) {
    case Kind::kTrue:
      return "true";
    case Kind::kAtom:
      return TermToString(lhs) + " " + CondOpName(op) + " " +
             TermToString(rhs);
    case Kind::kNot:
      return "!(" + children[0]->ToString() + ")";
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = (kind == Kind::kAnd) ? " & " : " | ";
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += sep;
        out += "(" + children[i]->ToString() + ")";
      }
      return out;
    }
  }
  return "?";
}

namespace {

/// Adapts the classic (tree, LabelMap) view to the NodeSource interface so
/// both entry points share one evaluation path.
class ViewSource final : public NodeSource {
 public:
  explicit ViewSource(const EmbeddingView& h) : h_(h) {}
  const DataNode* Resolve(int label) const override {
    NodeId mapped = h_.mapping->Get(label);
    return mapped == kInvalidNode ? nullptr : &h_.tree->node(mapped);
  }
  ResolvedNode ResolveIds(int label) const override {
    NodeId mapped = h_.mapping->Get(label);
    if (mapped == kInvalidNode) return ResolvedNode{};
    ResolvedNode r;
    r.node = &h_.tree->node(mapped);
    if (h_.tree->HasSymbolIds()) {
      r.tag_symbol = h_.tree->TagId(mapped);
      r.content_symbol = h_.tree->ContentId(mapped);
    }
    return r;
  }

 private:
  const EmbeddingView& h_;
};

}  // namespace

Result<TermValue> EvalTerm(const CondTerm& term, const EmbeddingView& h) {
  return EvalTerm(term, ViewSource(h));
}

Result<TermValue> EvalTerm(const CondTerm& term, const NodeSource& source) {
  TermValue v;
  switch (term.kind) {
    case CondTerm::Kind::kNodeTag:
    case CondTerm::Kind::kNodeContent: {
      ResolvedNode r = source.ResolveIds(term.node_label);
      const DataNode* n = r.node;
      if (n == nullptr) {
        return Status::InvalidArgument(
            "condition references pattern node $" +
            std::to_string(term.node_label) + " absent from the embedding");
      }
      if (term.kind == CondTerm::Kind::kNodeTag) {
        v.text = n->tag;
        v.type = n->tag_type;
        if (n->tag_type == kStringType) v.symbol = r.tag_symbol;
      } else {
        v.text = n->content;
        v.type = n->content_type;
        if (n->content_type == kStringType) v.symbol = r.content_symbol;
      }
      return v;
    }
    case CondTerm::Kind::kTypeName:
      v.text = term.text;
      v.is_type_name = true;
      return v;
    case CondTerm::Kind::kTypedValue:
      v.text = term.text;
      v.type = term.value_type.empty() ? kStringType : term.value_type;
      v.symbol = term.symbol;
      return v;
  }
  return Status::Internal("unreachable term kind");
}

Result<bool> EvalCondition(const Condition& c, const EmbeddingView& h,
                           const ConditionSemantics& semantics) {
  return EvalCondition(c, ViewSource(h), semantics);
}

Result<bool> EvalCondition(const Condition& c, const NodeSource& source,
                           const ConditionSemantics& semantics) {
  switch (c.kind) {
    case Condition::Kind::kTrue:
      return true;
    case Condition::Kind::kNot: {
      TOSS_ASSIGN_OR_RETURN(bool inner,
                            EvalCondition(*c.children[0], source, semantics));
      return !inner;
    }
    case Condition::Kind::kAnd: {
      for (const auto& child : c.children) {
        TOSS_ASSIGN_OR_RETURN(bool v,
                              EvalCondition(*child, source, semantics));
        if (!v) return false;
      }
      return true;
    }
    case Condition::Kind::kOr: {
      for (const auto& child : c.children) {
        TOSS_ASSIGN_OR_RETURN(bool v,
                              EvalCondition(*child, source, semantics));
        if (v) return true;
      }
      return false;
    }
    case Condition::Kind::kAtom: {
      TOSS_ASSIGN_OR_RETURN(TermValue x, EvalTerm(c.lhs, source));
      TOSS_ASSIGN_OR_RETURN(TermValue y, EvalTerm(c.rhs, source));
      switch (c.op) {
        case CondOp::kEq:
        case CondOp::kNeq:
        case CondOp::kLt:
        case CondOp::kLeq:
        case CondOp::kGt:
        case CondOp::kGeq:
          return semantics.Compare(x, c.op, y);
        case CondOp::kSimilar:
          return semantics.Similar(x, y);
        case CondOp::kIsa:
          return semantics.Related("isa", x, y);
        case CondOp::kPartOf:
          return semantics.Related("partof", x, y);
        case CondOp::kInstanceOf:
          return semantics.InstanceOf(x, y);
        case CondOp::kSubtypeOf:
          return semantics.SubtypeOf(x, y);
        case CondOp::kBelow: {
          // X below Y := X instance_of Y or X subtype_of Y (paper 5.1.1).
          TOSS_ASSIGN_OR_RETURN(bool inst, semantics.InstanceOf(x, y));
          if (inst) return true;
          return semantics.SubtypeOf(x, y);
        }
        case CondOp::kAbove: {
          // X above Y := Y below X.
          TOSS_ASSIGN_OR_RETURN(bool inst, semantics.InstanceOf(y, x));
          if (inst) return true;
          return semantics.SubtypeOf(y, x);
        }
      }
      return Status::Internal("unreachable operator");
    }
  }
  return Status::Internal("unreachable condition kind");
}

}  // namespace toss::tax
