#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace toss::common {

JsonValue JsonValue::Bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::Number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::String(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::Array() {
  JsonValue out;
  out.kind_ = Kind::kArray;
  return out;
}

JsonValue JsonValue::Object() {
  JsonValue out;
  out.kind_ = Kind::kObject;
  return out;
}

void JsonValue::Append(JsonValue element) {
  if (kind_ != Kind::kArray) *this = Array();
  array_.push_back(std::move(element));
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  if (kind_ != Kind::kObject) *this = Object();
  object_[key] = std::move(value);
}

namespace {

/// Appends `s` quoted and escaped, copying the runs between escaped bytes
/// whole.
void DumpString(const std::string& s, std::string* out) {
  out->push_back('"');
  size_t run = 0;  // start of the run not yet copied
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        *out += buf;
      }
    }
  }
  out->append(s, run, s.size() - run);
  out->push_back('"');
}

void DumpNumber(double v, std::string* out) {
  // NaN / infinity have no JSON spelling; null is the standard stand-in.
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  // Exact integers inside the double-safe range print without a decimal
  // point, so counters and ids stay readable and byte-stable.
  constexpr double kSafe = 9007199254740992.0;  // 2^53
  if (v == std::floor(v) && v > -kSafe && v < kSafe) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    *out += buf;
    return;
  }
  // Shortest of 15, 16 or 17 significant digits that round-trips (17
  // always does). std::to_chars with a precision prints as printf's "%.*g"
  // does, without the locale and format-string work.
  char buf[32];
  for (int prec = 15;; ++prec) {
    char* end = std::to_chars(buf, buf + sizeof(buf), v,
                              std::chars_format::general, prec)
                    .ptr;
    double parsed = 0;
    std::from_chars(buf, end, parsed);
    if (parsed == v || prec == 17) {
      out->append(buf, end);
      return;
    }
  }
}

}  // namespace

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      DumpNumber(number_, out);
      return;
    case Kind::kString:
      DumpString(string_, out);
      return;
    case Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        v.DumpTo(out);
      }
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out->push_back(',');
        first = false;
        DumpString(key, out);
        out->push_back(':');
        value.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

const JsonValue* JsonValue::Get(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::At(size_t index) const {
  if (kind_ != Kind::kArray || index >= array_.size()) return nullptr;
  return &array_[index];
}

size_t JsonValue::size() const {
  switch (kind_) {
    case Kind::kArray:
      return array_.size();
    case Kind::kObject:
      return object_.size();
    default:
      return 0;
  }
}

/// One-pass recursive-descent parser over the input view. Depth-bounded so
/// hostile nesting cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Run() {
    JsonValue root;
    TOSS_RETURN_NOT_OK(ParseValue(&root, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing garbage after JSON document");
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Fail(const std::string& what) const {
    return Status::ParseError("json: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Fail(std::string("expected '") + c + "'");
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->string_);
      }
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          *out = JsonValue();
          return Status::OK();
        }
        return Fail("bad keyword");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseKeyword(JsonValue* out) {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      *out = JsonValue::Bool(true);
      return Status::OK();
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      *out = JsonValue::Bool(false);
      return Status::OK();
    }
    return Fail("bad keyword");
  }

  Status ParseNumber(JsonValue* out) {
    // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
    const size_t start = pos_;
    auto digits = [this] {
      const size_t from = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ - from;
    };
    const bool minus = Consume('-');
    if (!Consume('0') && digits() == 0) {
      return Fail(minus ? "malformed number" : "expected a value");
    }
    if (Consume('.') && digits() == 0) return Fail("malformed number");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (digits() == 0) return Fail("malformed number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    *out = JsonValue::Number(std::strtod(token.c_str(), nullptr));
    return Status::OK();
  }

  /// Reads the four hex digits of a backslash-u escape.
  Status ParseHex4(unsigned int* cp) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    *cp = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      *cp <<= 4;
      if (h >= '0' && h <= '9') {
        *cp |= static_cast<unsigned int>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *cp |= static_cast<unsigned int>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *cp |= static_cast<unsigned int>(h - 'A' + 10);
      } else {
        return Fail("bad \\u escape digit");
      }
    }
    return Status::OK();
  }

  static void AppendUtf8(unsigned int cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    TOSS_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      // RFC 8259: control characters must be escaped inside strings.
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned int cp = 0;
          TOSS_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired low surrogate in \\u escape");
          }
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // A high surrogate must be followed by an escaped low one; the
            // pair encodes one code point above U+FFFF.
            unsigned int low = 0;
            if (text_.substr(pos_, 2) != "\\u") {
              return Fail("unpaired high surrogate in \\u escape");
            }
            pos_ += 2;
            TOSS_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("unpaired high surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    TOSS_RETURN_NOT_OK(Expect('['));
    out->kind_ = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue element;
      TOSS_RETURN_NOT_OK(ParseValue(&element, depth + 1));
      out->array_.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      TOSS_RETURN_NOT_OK(Expect(','));
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    TOSS_RETURN_NOT_OK(Expect('{'));
    out->kind_ = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      TOSS_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      TOSS_RETURN_NOT_OK(Expect(':'));
      JsonValue value;
      TOSS_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->object_[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      TOSS_RETURN_NOT_OK(Expect(','));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Run();
}

}  // namespace toss::common
