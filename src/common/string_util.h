// Small string helpers shared across the TOSS libraries.

#ifndef TOSS_COMMON_STRING_UTIL_H_
#define TOSS_COMMON_STRING_UTIL_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace toss {

/// Returns `s` with ASCII letters lowercased.
std::string ToLower(std::string_view s);

/// Returns `s` with leading/trailing ASCII whitespace removed.
std::string_view Trim(std::string_view s);

/// Splits on any character in `delims`, dropping empty pieces.
std::vector<std::string> SplitAny(std::string_view s, std::string_view delims);

/// Splits on whitespace, dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `needle` occurs in `haystack` (case sensitive).
bool Contains(std::string_view haystack, std::string_view needle);

/// Case-insensitive (ASCII) equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Case-insensitive (ASCII) substring test.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Tokenizes into lowercase alphanumeric words (non-alnum characters act as
/// separators). Used by token-based similarity measures.
std::vector<std::string> TokenizeWords(std::string_view s);

/// The TokenizeWords tokens of `s` that a non-alphanumeric character of `s`
/// delimits on both sides. Any string containing `s` holds each of them as
/// a whole word; the first and last token of `s` may be cut mid-word.
std::vector<std::string> EnclosedWords(std::string_view s);

/// Parses a decimal integer; returns false on non-numeric input or overflow.
bool ParseInt(std::string_view s, long long* out);

/// Parses a floating-point number; returns false on malformed input.
bool ParseDouble(std::string_view s, double* out);

/// Matches `s` against a glob-style pattern where '*' matches any (possibly
/// empty) substring. Used for the paper's wildcard tag conditions.
bool GlobMatch(std::string_view pattern, std::string_view s);

/// Ordering of two scalar-ish strings, used by every ordering comparison in
/// the query layers (TAX conditions, pushdown plan bounds) and mirrored by
/// the store's ordered indexes so range pushdown is sound:
///  * both parse as integers            -> integer order
///  * both parse as doubles (not ints)  -> double order
///  * both non-numeric                  -> lexicographic (byte) order
///  * mixed representations             -> incomparable (nullopt): a typed
///    ordering between e.g. "abc" and 1998 has no meaningful answer, and
///    defining it away keeps index scans exact.
/// Returns -1 / 0 / +1, or nullopt when incomparable.
std::optional<int> CompareScalar(std::string_view x, std::string_view y);

}  // namespace toss

#endif  // TOSS_COMMON_STRING_UTIL_H_
