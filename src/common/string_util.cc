#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace toss {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> SplitAny(std::string_view s,
                                  std::string_view delims) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || delims.find(s[i]) != std::string_view::npos) {
      if (i > start) out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  return SplitAny(s, " \t\r\n\f\v");
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (EqualsIgnoreCase(haystack.substr(i, needle.size()), needle)) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> TokenizeWords(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : s) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      cur += static_cast<char>(
          std::tolower(static_cast<unsigned char>(ch)));
    } else if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::vector<std::string> EnclosedWords(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    if (!std::isalnum(static_cast<unsigned char>(s[i]))) {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < s.size() && std::isalnum(static_cast<unsigned char>(s[end]))) {
      ++end;
    }
    if (i > 0 && end < s.size()) {
      out.push_back(ToLower(s.substr(i, end - i)));
    }
    i = end;
  }
  return out;
}

bool ParseInt(std::string_view s, long long* out) {
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

std::optional<int> CompareScalar(std::string_view x, std::string_view y) {
  long long ix, iy;
  bool x_int = ParseInt(x, &ix);
  bool y_int = ParseInt(y, &iy);
  if (x_int && y_int) {
    return ix < iy ? -1 : (ix > iy ? 1 : 0);
  }
  if (x_int != y_int) return std::nullopt;
  double dx, dy;
  bool x_dbl = ParseDouble(x, &dx);
  bool y_dbl = ParseDouble(y, &dy);
  if (x_dbl && y_dbl) {
    return dx < dy ? -1 : (dx > dy ? 1 : 0);
  }
  if (x_dbl != y_dbl) return std::nullopt;
  int cmp = std::string_view(x).compare(y);
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

bool GlobMatch(std::string_view pattern, std::string_view s) {
  // Iterative two-pointer matcher with backtracking to the last '*'.
  size_t p = 0, i = 0;
  size_t star = std::string_view::npos, mark = 0;
  while (i < s.size()) {
    if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = i;
    } else if (p < pattern.size() && pattern[p] == s[i]) {
      ++p;
      ++i;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      i = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace toss
