#include "xml/xpath.h"

#include <algorithm>
#include <cctype>

#include "common/string_util.h"

namespace toss::xml {

namespace {

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

struct RelPath {
  bool is_self = false;                 // '.'
  bool is_attribute = false;            // '@name'
  std::string attribute;                // when is_attribute
  std::vector<std::string> segments;    // child steps otherwise
};

struct BoolExpr;

enum class CompareOp {
  kExists,
  kEquals,
  kNotEquals,
  kContains,
  kStartsWith,
  kLess,
  kLessEq,
  kGreater,
  kGreaterEq,
};

struct Predicate {
  RelPath path;
  CompareOp op = CompareOp::kExists;
  std::string literal;
};

struct BoolExpr {
  enum class Kind { kPredicate, kAnd, kOr, kNot } kind = Kind::kPredicate;
  Predicate predicate;                      // kPredicate
  std::vector<std::unique_ptr<BoolExpr>> children;  // kAnd / kOr / kNot
};

/// One bracketed predicate: either a boolean expression or a positional
/// filter (1-based). Entries apply left-to-right over the per-context
/// candidate list, so a[1][b='x'] and a[b='x'][1] differ as in XPath.
struct PredEntry {
  std::unique_ptr<BoolExpr> expr;  // null for positional entries
  int position = 0;                // >= 1 for positional entries
};

struct Step {
  bool descendant = false;  // reached via '//' rather than '/'
  std::string name;         // "*" for wildcard
  std::vector<PredEntry> predicates;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class PathParser {
 public:
  explicit PathParser(std::string_view text) : text_(text) {}

  Status Parse(std::vector<Step>* out) {
    if (!Lookahead("/")) return Error("path must start with '/' or '//'");
    while (!Eof()) {
      Step step;
      if (Lookahead("//")) {
        step.descendant = true;
        Skip(2);
      } else if (Lookahead("/")) {
        Skip(1);
      } else {
        return Error("expected '/' or '//'");
      }
      TOSS_RETURN_NOT_OK(ParseNameTest(&step.name));
      while (Lookahead("[")) {
        Skip(1);
        SkipSpace();
        // Positional predicate: a bare integer.
        size_t save = pos_;
        if (!Eof() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          size_t start = pos_;
          while (!Eof() &&
                 std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
          }
          size_t after_digits = pos_;
          SkipSpace();
          if (Lookahead("]")) {
            int position = std::stoi(std::string(
                text_.substr(start, after_digits - start)));
            if (position < 1) return Error("position must be >= 1");
            Skip(1);
            PredEntry entry;
            entry.position = position;
            step.predicates.push_back(std::move(entry));
            continue;
          }
          pos_ = save;  // not positional after all (e.g. malformed)
        }
        auto expr = std::make_unique<BoolExpr>();
        TOSS_RETURN_NOT_OK(ParseOr(expr.get()));
        if (!Lookahead("]")) return Error("expected ']'");
        Skip(1);
        PredEntry entry;
        entry.expr = std::move(expr);
        step.predicates.push_back(std::move(entry));
      }
      out->push_back(std::move(step));
    }
    if (out->empty()) return Error("empty path");
    return Status::OK();
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError("xpath: " + what + " at offset " +
                              std::to_string(pos_) + " in '" +
                              std::string(text_) + "'");
  }

  bool Eof() const { return pos_ >= text_.size(); }
  bool Lookahead(std::string_view s) const {
    return text_.substr(pos_, s.size()) == s;
  }
  void Skip(size_t n) { pos_ += n; }
  void SkipSpace() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  // Keyword lookahead with a word boundary (so a tag named "orchid" is not
  // parsed as the operator "or").
  bool LookaheadWord(std::string_view word) const {
    if (!Lookahead(word)) return false;
    size_t after = pos_ + word.size();
    return after >= text_.size() || !IsNameChar(text_[after]);
  }

  Status ParseNameTest(std::string* out) {
    SkipSpace();
    if (!Eof() && text_[pos_] == '*') {
      *out = "*";
      Skip(1);
      return Status::OK();
    }
    return ParseName(out);
  }

  Status ParseName(std::string* out) {
    SkipSpace();
    size_t start = pos_;
    while (!Eof() && IsNameChar(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected name");
    *out = std::string(text_.substr(start, pos_ - start));
    return Status::OK();
  }

  Status ParseOr(BoolExpr* out) {
    auto first = std::make_unique<BoolExpr>();
    TOSS_RETURN_NOT_OK(ParseAnd(first.get()));
    SkipSpace();
    if (!LookaheadWord("or")) {
      *out = std::move(*first);
      return Status::OK();
    }
    out->kind = BoolExpr::Kind::kOr;
    out->children.push_back(std::move(first));
    while (true) {
      SkipSpace();
      if (!LookaheadWord("or")) break;
      Skip(2);
      auto next = std::make_unique<BoolExpr>();
      TOSS_RETURN_NOT_OK(ParseAnd(next.get()));
      out->children.push_back(std::move(next));
    }
    return Status::OK();
  }

  Status ParseAnd(BoolExpr* out) {
    auto first = std::make_unique<BoolExpr>();
    TOSS_RETURN_NOT_OK(ParseUnary(first.get()));
    SkipSpace();
    if (!LookaheadWord("and")) {
      *out = std::move(*first);
      return Status::OK();
    }
    out->kind = BoolExpr::Kind::kAnd;
    out->children.push_back(std::move(first));
    while (true) {
      SkipSpace();
      if (!LookaheadWord("and")) break;
      Skip(3);
      auto next = std::make_unique<BoolExpr>();
      TOSS_RETURN_NOT_OK(ParseUnary(next.get()));
      out->children.push_back(std::move(next));
    }
    return Status::OK();
  }

  Status ParseUnary(BoolExpr* out) {
    SkipSpace();
    if (LookaheadWord("not")) {
      size_t save = pos_;
      Skip(3);
      SkipSpace();
      if (Lookahead("(")) {
        Skip(1);
        auto inner = std::make_unique<BoolExpr>();
        TOSS_RETURN_NOT_OK(ParseOr(inner.get()));
        SkipSpace();
        if (!Lookahead(")")) return Error("expected ')' after not(...)");
        Skip(1);
        out->kind = BoolExpr::Kind::kNot;
        out->children.push_back(std::move(inner));
        return Status::OK();
      }
      pos_ = save;  // 'not' was actually a tag name
    }
    return ParsePrimary(out);
  }

  Status ParsePrimary(BoolExpr* out) {
    SkipSpace();
    if (Lookahead("(")) {
      Skip(1);
      TOSS_RETURN_NOT_OK(ParseOr(out));
      SkipSpace();
      if (!Lookahead(")")) return Error("expected ')'");
      Skip(1);
      return Status::OK();
    }
    out->kind = BoolExpr::Kind::kPredicate;
    Predicate* p = &out->predicate;
    if (LookaheadWord("contains")) {
      Skip(8);
      SkipSpace();
      if (!Lookahead("(")) return Error("expected '(' after contains");
      Skip(1);
      TOSS_RETURN_NOT_OK(ParseRelPath(&p->path));
      SkipSpace();
      if (!Lookahead(",")) return Error("expected ',' in contains()");
      Skip(1);
      TOSS_RETURN_NOT_OK(ParseLiteral(&p->literal));
      SkipSpace();
      if (!Lookahead(")")) return Error("expected ')' after contains()");
      Skip(1);
      p->op = CompareOp::kContains;
      return Status::OK();
    }
    if (LookaheadWord("starts-with")) {
      Skip(11);
      SkipSpace();
      if (!Lookahead("(")) return Error("expected '(' after starts-with");
      Skip(1);
      TOSS_RETURN_NOT_OK(ParseRelPath(&p->path));
      SkipSpace();
      if (!Lookahead(",")) return Error("expected ',' in starts-with()");
      Skip(1);
      TOSS_RETURN_NOT_OK(ParseLiteral(&p->literal));
      SkipSpace();
      if (!Lookahead(")")) return Error("expected ')' after starts-with()");
      Skip(1);
      p->op = CompareOp::kStartsWith;
      return Status::OK();
    }
    TOSS_RETURN_NOT_OK(ParseRelPath(&p->path));
    SkipSpace();
    struct OpToken {
      const char* token;
      CompareOp op;
    };
    // Longest match first.
    static constexpr OpToken kOps[] = {
        {"!=", CompareOp::kNotEquals}, {"<=", CompareOp::kLessEq},
        {">=", CompareOp::kGreaterEq}, {"=", CompareOp::kEquals},
        {"<", CompareOp::kLess},       {">", CompareOp::kGreater},
    };
    for (const auto& candidate : kOps) {
      if (Lookahead(candidate.token)) {
        Skip(std::string_view(candidate.token).size());
        p->op = candidate.op;
        return ParseLiteral(&p->literal);
      }
    }
    p->op = CompareOp::kExists;
    return Status::OK();
  }

  Status ParseRelPath(RelPath* out) {
    SkipSpace();
    if (Lookahead(".")) {
      Skip(1);
      out->is_self = true;
      return Status::OK();
    }
    if (Lookahead("@")) {
      Skip(1);
      out->is_attribute = true;
      return ParseName(&out->attribute);
    }
    std::string name;
    TOSS_RETURN_NOT_OK(ParseName(&name));
    out->segments.push_back(std::move(name));
    while (Lookahead("/")) {
      Skip(1);
      TOSS_RETURN_NOT_OK(ParseName(&name));
      out->segments.push_back(std::move(name));
    }
    return Status::OK();
  }

  Status ParseLiteral(std::string* out) {
    SkipSpace();
    if (Eof() || (text_[pos_] != '\'' && text_[pos_] != '"')) {
      return Error("expected string literal");
    }
    char quote = text_[pos_];
    Skip(1);
    size_t start = pos_;
    while (!Eof() && text_[pos_] != quote) ++pos_;
    if (Eof()) return Error("unterminated string literal");
    *out = std::string(text_.substr(start, pos_ - start));
    Skip(1);
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

void CollectRelPathValues(const XmlDocument& doc, NodeId ctx,
                          const std::vector<std::string>& segments,
                          size_t index, std::vector<std::string>* out) {
  if (index == segments.size()) {
    out->push_back(doc.TextContent(ctx));
    return;
  }
  for (NodeId c : doc.ChildrenByTag(ctx, segments[index])) {
    CollectRelPathValues(doc, c, segments, index + 1, out);
  }
}

bool EvalPredicate(const XmlDocument& doc, NodeId ctx, const Predicate& p) {
  std::vector<std::string> values;
  if (p.path.is_self) {
    values.push_back(doc.TextContent(ctx));
  } else if (p.path.is_attribute) {
    std::string_view v = doc.Attribute(ctx, p.path.attribute);
    if (p.op == CompareOp::kExists) return !v.empty();
    values.emplace_back(v);
  } else {
    CollectRelPathValues(doc, ctx, p.path.segments, 0, &values);
  }
  switch (p.op) {
    case CompareOp::kExists:
      return !values.empty();
    case CompareOp::kEquals:
      return std::any_of(values.begin(), values.end(),
                         [&](const std::string& v) { return v == p.literal; });
    case CompareOp::kNotEquals:
      // XPath existential semantics: true if some value differs.
      return std::any_of(
          values.begin(), values.end(),
          [&](const std::string& v) { return v != p.literal; });
    case CompareOp::kContains:
      return std::any_of(values.begin(), values.end(),
                         [&](const std::string& v) {
                           return Contains(v, p.literal);
                         });
    case CompareOp::kStartsWith:
      return std::any_of(values.begin(), values.end(),
                         [&](const std::string& v) {
                           return StartsWith(v, p.literal);
                         });
    case CompareOp::kLess:
    case CompareOp::kLessEq:
    case CompareOp::kGreater:
    case CompareOp::kGreaterEq:
      return std::any_of(values.begin(), values.end(),
                         [&](const std::string& v) {
                           auto cmp = CompareScalar(v, p.literal);
                           if (!cmp.has_value()) return false;
                           switch (p.op) {
                             case CompareOp::kLess:
                               return *cmp < 0;
                             case CompareOp::kLessEq:
                               return *cmp <= 0;
                             case CompareOp::kGreater:
                               return *cmp > 0;
                             default:
                               return *cmp >= 0;
                           }
                         });
  }
  return false;
}

bool EvalBool(const XmlDocument& doc, NodeId ctx, const BoolExpr& e) {
  switch (e.kind) {
    case BoolExpr::Kind::kPredicate:
      return EvalPredicate(doc, ctx, e.predicate);
    case BoolExpr::Kind::kAnd:
      return std::all_of(e.children.begin(), e.children.end(),
                         [&](const auto& c) { return EvalBool(doc, ctx, *c); });
    case BoolExpr::Kind::kOr:
      return std::any_of(e.children.begin(), e.children.end(),
                         [&](const auto& c) { return EvalBool(doc, ctx, *c); });
    case BoolExpr::Kind::kNot:
      return !EvalBool(doc, ctx, *e.children[0]);
  }
  return false;
}

bool NameMatches(const std::string& test, const std::string& tag) {
  return test == "*" || test == tag;
}

}  // namespace

struct XPath::Impl {
  std::vector<Step> steps;
};

XPath::XPath(std::string text, std::unique_ptr<Impl> impl)
    : text_(std::move(text)), impl_(std::move(impl)) {}

XPath::XPath(XPath&&) noexcept = default;
XPath& XPath::operator=(XPath&&) noexcept = default;
XPath::~XPath() = default;

Result<XPath> XPath::Compile(std::string_view expr) {
  auto impl = std::make_unique<Impl>();
  PathParser parser(expr);
  TOSS_RETURN_NOT_OK(parser.Parse(&impl->steps));
  return XPath(std::string(expr), std::move(impl));
}

std::vector<NodeId> XPath::Evaluate(const XmlDocument& doc) const {
  std::vector<NodeId> current;
  if (doc.empty()) return current;

  // Applies one step to a per-context candidate list: name test, then the
  // predicate entries left-to-right (boolean filters elementwise,
  // positional filters select by 1-based index within the surviving list).
  auto apply_step = [&](const Step& step, std::vector<NodeId> candidates) {
    std::vector<NodeId> kept;
    for (NodeId id : candidates) {
      const XmlNode& n = doc.node(id);
      if (n.kind == NodeKind::kElement && NameMatches(step.name, n.tag)) {
        kept.push_back(id);
      }
    }
    for (const auto& pred : step.predicates) {
      if (pred.expr != nullptr) {
        std::vector<NodeId> filtered;
        for (NodeId id : kept) {
          if (EvalBool(doc, id, *pred.expr)) filtered.push_back(id);
        }
        kept = std::move(filtered);
      } else {
        size_t index = static_cast<size_t>(pred.position);
        if (index > kept.size()) {
          kept.clear();
        } else {
          kept = {kept[index - 1]};
        }
      }
      if (kept.empty()) break;
    }
    return kept;
  };

  // The virtual document node is the context for the first step: '/' selects
  // among the root element only; '//' among all elements.
  bool first = true;
  for (const Step& step : impl_->steps) {
    std::vector<NodeId> next;
    auto expand_context = [&](NodeId ctx, bool include_self_as_root) {
      std::vector<NodeId> candidates;
      if (step.descendant) {
        if (include_self_as_root) candidates.push_back(ctx);
        auto desc = doc.ElementDescendants(ctx);
        candidates.insert(candidates.end(), desc.begin(), desc.end());
      } else if (include_self_as_root) {
        candidates.push_back(ctx);
      } else {
        candidates = doc.ElementChildren(ctx);
      }
      auto kept = apply_step(step, std::move(candidates));
      next.insert(next.end(), kept.begin(), kept.end());
    };
    if (first) {
      expand_context(doc.root(), /*include_self_as_root=*/true);
      first = false;
    } else {
      for (NodeId ctx : current) {
        expand_context(ctx, /*include_self_as_root=*/false);
      }
    }
    // Dedup while preserving document order (ids are preorder-assigned).
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    current = std::move(next);
    if (current.empty()) break;
  }
  return current;
}

namespace {

void CollectHints(const BoolExpr& e, const std::string& step_name,
                  PlanHints* hints) {
  switch (e.kind) {
    case BoolExpr::Kind::kPredicate: {
      const Predicate& p = e.predicate;
      // Relpath segments must exist for any of the operators to hold
      // (equality/contains are existential over matching elements).
      for (const auto& seg : p.path.segments) {
        hints->required_tags.push_back(seg);
      }
      if (p.op == CompareOp::kEquals) {
        if (!p.path.segments.empty()) {
          hints->required_values.push_back({p.path.segments.back(),
                                            p.literal});
        } else if (p.path.is_self) {
          for (auto& tok : TokenizeWords(p.literal)) {
            hints->required_terms.push_back(std::move(tok));
          }
        }
      } else if (p.op == CompareOp::kContains) {
        for (auto& tok : TokenizeWords(p.literal)) {
          hints->required_terms.push_back(std::move(tok));
        }
      } else if (p.op == CompareOp::kStartsWith) {
        // The last token of the prefix may be cut mid-word ("Data Mi"),
        // so only the preceding complete tokens are MUST facts.
        auto toks = TokenizeWords(p.literal);
        for (size_t i = 0; i + 1 < toks.size(); ++i) {
          hints->required_terms.push_back(std::move(toks[i]));
        }
      } else if (p.op == CompareOp::kLess || p.op == CompareOp::kLessEq ||
                 p.op == CompareOp::kGreater ||
                 p.op == CompareOp::kGreaterEq) {
        // One-sided range fact; strict comparisons relax to inclusive.
        std::string tag;
        if (!p.path.segments.empty()) {
          tag = p.path.segments.back();
        } else if (p.path.is_self && step_name != "*") {
          tag = step_name;
        }
        if (!tag.empty()) {
          PlanHints::ValueRange range;
          range.tag = std::move(tag);
          if (p.op == CompareOp::kLess || p.op == CompareOp::kLessEq) {
            range.hi = p.literal;
          } else {
            range.lo = p.literal;
          }
          hints->ranges.push_back(std::move(range));
        }
      }
      break;
    }
    case BoolExpr::Kind::kAnd:
      for (const auto& c : e.children) CollectHints(*c, step_name, hints);
      break;
    case BoolExpr::Kind::kOr:
    case BoolExpr::Kind::kNot:
      // Disjunctive/negated context cannot produce MUST facts.
      break;
  }
}

}  // namespace

PlanHints XPath::Hints() const {
  PlanHints hints;
  for (const Step& step : impl_->steps) {
    if (step.name != "*") hints.required_tags.push_back(step.name);
    for (const auto& pred : step.predicates) {
      if (pred.expr == nullptr) continue;  // positional: no MUST facts
      CollectHints(*pred.expr, step.name, &hints);
    }
  }
  return hints;
}

Result<std::vector<NodeId>> EvaluateXPath(const XmlDocument& doc,
                                          std::string_view expr) {
  TOSS_ASSIGN_OR_RETURN(XPath compiled, XPath::Compile(expr));
  return compiled.Evaluate(doc);
}

}  // namespace toss::xml
