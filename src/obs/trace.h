// Per-query trace spans (DESIGN.md §10 "Observability").
//
// A Trace owns a tree of timed nodes; Span is the RAII handle that times
// one node and parents its children. Spans are explicit about parenting
// (child spans take the parent Span, not an ambient stack), so a trace
// assembled across worker-pool threads stays well-formed: node creation is
// guarded by the trace's mutex, while each span's own timing fields are
// written only by its owner.
//
// The null-parent convention keeps instrumented code unconditional: every
// instrumented function takes a `Span* parent` and creates children with
// `Span(parent, "phase")`; when the caller passed no trace (parent null or
// disabled), the children are disabled too and every operation is a no-op
// costing one branch. Execute and ExplainAnalyze therefore share one code
// path.

#ifndef TOSS_OBS_TRACE_H_
#define TOSS_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace toss::obs {

/// One timed node of a trace tree.
struct TraceNode {
  std::string name;
  uint64_t start_nanos = 0;     ///< relative to the trace epoch
  uint64_t duration_nanos = 0;  ///< 0 while the span is open
  std::vector<std::pair<std::string, std::string>> annotations;
  std::vector<std::unique_ptr<TraceNode>> children;

  double DurationMillis() const {
    return static_cast<double>(duration_nanos) / 1e6;
  }
};

class Span;

/// Owns a trace tree rooted at one named node. Create the root span with
/// RootSpan(); the root's duration is recorded when that span ends.
class Trace {
 public:
  explicit Trace(std::string root_name);

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// The span timing the root node. Call exactly once.
  Span RootSpan();

  const TraceNode& root() const { return root_; }

  /// Fraction of the root's duration covered by its children (their
  /// durations summed). The acceptance metric for "does the trace account
  /// for the query's wall time". Returns 1 for an empty/unfinished root.
  double CoverageFraction() const;

  /// The tree as nested JSON:
  ///   {"name":..,"start_ns":..,"duration_ns":..,
  ///    "annotations":{..},"children":[..]}
  common::JsonValue Json() const;

  /// Indented human-readable rendering (EXPLAIN ANALYZE output).
  std::string Pretty() const;

 private:
  friend class Span;

  uint64_t NanosSinceEpoch() const;

  std::mutex mu_;  ///< guards child-vector mutation across threads
  uint64_t epoch_nanos_ = 0;
  TraceNode root_;
};

/// RAII timer over one TraceNode. Movable, not copyable. A
/// default-constructed Span is disabled: annotations and children of a
/// disabled span are no-ops, and its children are disabled too.
class Span {
 public:
  Span() = default;

  /// Child span under `parent`; disabled (cheaply) when `parent` is null
  /// or disabled.
  Span(Span* parent, std::string name);

  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { End(); }

  bool enabled() const { return node_ != nullptr; }

  /// Records the duration; idempotent (later calls keep the first stop).
  void End();

  void Annotate(std::string key, std::string value);
  void Annotate(std::string key, uint64_t value);
  void Annotate(std::string key, double value);

 private:
  friend class Trace;
  Span(Trace* trace, TraceNode* node);

  Trace* trace_ = nullptr;
  TraceNode* node_ = nullptr;
  uint64_t start_nanos_ = 0;
};

}  // namespace toss::obs

#endif  // TOSS_OBS_TRACE_H_
