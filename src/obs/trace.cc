#include "obs/trace.h"

#include <chrono>
#include <cstdio>

namespace toss::obs {

namespace {

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

common::JsonValue NodeJson(const TraceNode& n) {
  using common::JsonValue;
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::String(n.name));
  out.Set("start_ns", JsonValue::Number(static_cast<double>(n.start_nanos)));
  out.Set("duration_ns",
          JsonValue::Number(static_cast<double>(n.duration_nanos)));
  JsonValue annotations = JsonValue::Object();
  for (const auto& [k, v] : n.annotations) {
    annotations.Set(k, JsonValue::String(v));
  }
  out.Set("annotations", std::move(annotations));
  JsonValue children = JsonValue::Array();
  for (const auto& child : n.children) children.Append(NodeJson(*child));
  out.Set("children", std::move(children));
  return out;
}

void NodePretty(const TraceNode& n, int depth, std::string* out) {
  char line[256];
  std::snprintf(line, sizeof(line), "%*s%-*s %10.3f ms", depth * 2, "",
                36 - depth * 2, n.name.c_str(), n.DurationMillis());
  *out += line;
  for (const auto& [k, v] : n.annotations) {
    *out += "  " + k + "=" + v;
  }
  *out += "\n";
  for (const auto& child : n.children) {
    NodePretty(*child, depth + 1, out);
  }
}

}  // namespace

Trace::Trace(std::string root_name) : epoch_nanos_(MonotonicNanos()) {
  root_.name = std::move(root_name);
}

uint64_t Trace::NanosSinceEpoch() const {
  return MonotonicNanos() - epoch_nanos_;
}

Span Trace::RootSpan() { return Span(this, &root_); }

double Trace::CoverageFraction() const {
  if (root_.duration_nanos == 0) return 1.0;
  uint64_t covered = 0;
  for (const auto& child : root_.children) {
    covered += child->duration_nanos;
  }
  if (covered > root_.duration_nanos) return 1.0;
  return static_cast<double>(covered) /
         static_cast<double>(root_.duration_nanos);
}

common::JsonValue Trace::Json() const { return NodeJson(root_); }

std::string Trace::Pretty() const {
  std::string out;
  NodePretty(root_, 0, &out);
  return out;
}

Span::Span(Trace* trace, TraceNode* node) : trace_(trace), node_(node) {
  start_nanos_ = trace_->NanosSinceEpoch();
  node_->start_nanos = start_nanos_;
}

Span::Span(Span* parent, std::string name) {
  if (parent == nullptr || !parent->enabled()) return;
  trace_ = parent->trace_;
  auto child = std::make_unique<TraceNode>();
  child->name = std::move(name);
  TraceNode* raw = child.get();
  {
    std::lock_guard<std::mutex> lock(trace_->mu_);
    parent->node_->children.push_back(std::move(child));
  }
  node_ = raw;
  start_nanos_ = trace_->NanosSinceEpoch();
  node_->start_nanos = start_nanos_;
}

Span::Span(Span&& other) noexcept
    : trace_(other.trace_),
      node_(other.node_),
      start_nanos_(other.start_nanos_) {
  other.trace_ = nullptr;
  other.node_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this == &other) return *this;
  End();
  trace_ = other.trace_;
  node_ = other.node_;
  start_nanos_ = other.start_nanos_;
  other.trace_ = nullptr;
  other.node_ = nullptr;
  return *this;
}

void Span::End() {
  if (node_ == nullptr) return;
  if (node_->duration_nanos == 0) {
    uint64_t now = trace_->NanosSinceEpoch();
    node_->duration_nanos = now > start_nanos_ ? now - start_nanos_ : 1;
  }
  node_ = nullptr;
  trace_ = nullptr;
}

void Span::Annotate(std::string key, std::string value) {
  if (node_ == nullptr) return;
  std::lock_guard<std::mutex> lock(trace_->mu_);
  node_->annotations.emplace_back(std::move(key), std::move(value));
}

void Span::Annotate(std::string key, uint64_t value) {
  Annotate(std::move(key), std::to_string(value));
}

void Span::Annotate(std::string key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  Annotate(std::move(key), std::string(buf));
}

}  // namespace toss::obs
