#include "xml/xml_writer.h"

namespace toss::xml {

namespace {

bool IsTextOnly(const XmlDocument& doc, NodeId id) {
  for (NodeId c : doc.node(id).children) {
    if (doc.node(c).kind != NodeKind::kText) return false;
  }
  return true;
}

/// Appends `s` escaped, copying the runs between escaped bytes whole.
void AppendEscaped(std::string_view s, std::string* out) {
  size_t run = 0;  // start of the run not yet copied
  for (size_t i = 0; i < s.size(); ++i) {
    const char* entity;
    switch (s[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      default:
        continue;
    }
    out->append(s.data() + run, i - run);
    *out += entity;
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

void Indent(const WriteOptions& opts, int depth, std::string* out) {
  if (opts.pretty) out->append(2 * static_cast<size_t>(depth), ' ');
}

void WriteNode(const XmlDocument& doc, NodeId id, const WriteOptions& opts,
               int depth, std::string* out) {
  const XmlNode& n = doc.node(id);
  if (n.kind == NodeKind::kText) {
    Indent(opts, depth, out);
    AppendEscaped(n.text, out);
    if (opts.pretty) *out += '\n';
    return;
  }
  Indent(opts, depth, out);
  *out += '<';
  *out += n.tag;
  for (const auto& attr : n.attributes) {
    *out += ' ';
    *out += attr.name;
    *out += "=\"";
    AppendEscaped(attr.value, out);
    *out += '"';
  }
  if (n.children.empty()) {
    *out += "/>";
    if (opts.pretty) *out += '\n';
    return;
  }
  *out += '>';
  if (opts.pretty && IsTextOnly(doc, id)) {
    // Keep <title>Some text</title> on one line.
    for (NodeId c : n.children) AppendEscaped(doc.node(c).text, out);
    *out += "</";
    *out += n.tag;
    *out += ">\n";
    return;
  }
  if (opts.pretty) *out += '\n';
  for (NodeId c : n.children) {
    WriteNode(doc, c, opts, depth + 1, out);
  }
  Indent(opts, depth, out);
  *out += "</";
  *out += n.tag;
  *out += '>';
  if (opts.pretty) *out += '\n';
}

}  // namespace

std::string EscapeText(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, &out);
  return out;
}

std::string WriteSubtree(const XmlDocument& doc, NodeId id,
                         const WriteOptions& options) {
  std::string out;
  if (options.declaration) {
    out += "<?xml version=\"1.0\"?>";
    out += options.pretty ? "\n" : "";
  }
  WriteNode(doc, id, options, 0, &out);
  return out;
}

std::string Write(const XmlDocument& doc, const WriteOptions& options) {
  if (doc.empty()) return "";
  return WriteSubtree(doc, doc.root(), options);
}

}  // namespace toss::xml
