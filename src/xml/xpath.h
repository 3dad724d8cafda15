// XPath-lite: the query surface the embedded store exposes, mirroring the
// subset of XPath 1.0 that TOSS's query executor generates when it rewrites
// pattern trees (the paper's phase (i)).
//
// Supported grammar:
//
//   path      := ('/' | '//') step (('/' | '//') step)*
//   step      := nametest predicate*
//   nametest  := NAME | '*'
//   predicate := '[' or-expr ']'
//   or-expr   := and-expr ('or' and-expr)*
//   and-expr  := unary ('and' unary)*
//   unary     := 'not' '(' or-expr ')' | primary
//   primary   := relpath                          -- existence test
//              | relpath ('=' | '!=' | '<=' | '>=' | '<' | '>') literal
//              | 'contains' '(' relpath ',' literal ')'
//              | 'starts-with' '(' relpath ',' literal ')'
//              | '(' or-expr ')'
//
// Ordering comparisons use CompareScalar (common/string_util.h): integer
// when both sides are integers, double when both are non-integer numbers,
// lexicographic for two strings, and *incomparable* (false) for mixed
// representations -- mirrored exactly by the store's ordered indexes.
//   relpath   := '.' | '@' NAME | NAME ('/' NAME)*
//   literal   := "'" chars "'" | '"' chars '"'
//
// Comparisons use XPath's existential semantics: `author='X'` is true when
// *some* <author> child's text equals X.

#ifndef TOSS_XML_XPATH_H_
#define TOSS_XML_XPATH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "xml/xml_document.h"

namespace toss::xml {

/// Conservative prefilter facts extracted from a compiled expression: every
/// listed tag/value/term MUST occur in a document for it to match. The
/// store's planner intersects these against its indexes to prune documents
/// before full evaluation. Facts are only drawn from conjunctive context
/// (never from under `or`/`not`), so pruning is sound.
struct PlanHints {
  /// Element tags that must exist somewhere in the document.
  std::vector<std::string> required_tags;
  /// (tag, exact text content) pairs that must exist.
  std::vector<std::pair<std::string, std::string>> required_values;
  /// Lowercased word tokens that must appear in some text content.
  std::vector<std::string> required_terms;
  /// Ordering facts from comparison predicates ([. >= '1998'], [year <=
  /// '2000']): the document must contain a `tag` element whose content is
  /// within [lo, hi] under CompareScalar ordering (absent side = open).
  /// Strict comparisons contribute their inclusive relaxation (still a
  /// sound MUST fact).
  struct ValueRange {
    std::string tag;
    std::optional<std::string> lo;
    std::optional<std::string> hi;
  };
  std::vector<ValueRange> ranges;
};

/// Parsed XPath-lite expression; obtain via XPath::Compile.
class XPath {
 public:
  /// Compiles `expr`; returns ParseError on malformed input.
  static Result<XPath> Compile(std::string_view expr);

  XPath(XPath&&) noexcept;
  XPath& operator=(XPath&&) noexcept;
  XPath(const XPath&) = delete;
  XPath& operator=(const XPath&) = delete;
  ~XPath();

  /// Evaluates against `doc`, returning matching element ids in document
  /// order (no duplicates).
  std::vector<NodeId> Evaluate(const XmlDocument& doc) const;

  /// The source text the expression was compiled from.
  const std::string& text() const { return text_; }

  /// Prefilter facts for index-backed planning (see PlanHints).
  PlanHints Hints() const;

 private:
  struct Impl;
  XPath(std::string text, std::unique_ptr<Impl> impl);

  std::string text_;
  std::unique_ptr<Impl> impl_;
};

/// One-shot convenience: compile + evaluate.
Result<std::vector<NodeId>> EvaluateXPath(const XmlDocument& doc,
                                          std::string_view expr);

}  // namespace toss::xml

#endif  // TOSS_XML_XPATH_H_
