#include "store/snapshot.h"

#include <array>
#include <cstdio>

#include "common/string_util.h"

namespace toss::store {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool NeedsEscape(unsigned char c) {
  return c == '%' || c < 0x20 || c == 0x7f;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char c : data) {
    crc = table[(crc ^ c) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string EscapeKey(std::string_view key) {
  std::string out;
  out.reserve(key.size());
  for (unsigned char c : key) {
    if (NeedsEscape(c)) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

Result<std::string> UnescapeKey(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(escaped[i]);
    if (c == '%') {
      if (i + 2 >= escaped.size()) {
        return Status::ParseError("truncated %-escape in key field: '" +
                                  std::string(escaped) + "'");
      }
      int hi = HexDigit(escaped[i + 1]);
      int lo = HexDigit(escaped[i + 2]);
      if (hi < 0 || lo < 0) {
        return Status::ParseError("malformed %-escape in key field: '" +
                                  std::string(escaped) + "'");
      }
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else if (NeedsEscape(c)) {
      // A raw control byte can only appear if the manifest was corrupted
      // or hand-edited; reject rather than guess.
      return Status::ParseError("unescaped control byte in key field");
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

std::string GenerationDirName(uint64_t n) {
  return "gen-" + std::to_string(n);
}

std::string TempGenerationDirName(uint64_t n) {
  return GenerationDirName(n) + ".tmp";
}

std::optional<uint64_t> ParseGenerationDirName(std::string_view name) {
  if (!StartsWith(name, "gen-")) return std::nullopt;
  std::string_view digits = name.substr(4);
  if (digits.empty() || digits.size() > 19) return std::nullopt;
  uint64_t n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  return n;
}

std::optional<uint64_t> ParseTempGenerationDirName(std::string_view name) {
  if (!EndsWith(name, ".tmp")) return std::nullopt;
  return ParseGenerationDirName(name.substr(0, name.size() - 4));
}

std::string WalFileName(uint64_t n) {
  return "wal-" + std::to_string(n) + ".log";
}

std::optional<uint64_t> ParseWalFileName(std::string_view name) {
  if (!StartsWith(name, "wal-") || !EndsWith(name, ".log")) {
    return std::nullopt;
  }
  std::string_view digits = name.substr(4, name.size() - 8);
  if (digits.empty() || digits.size() > 19) return std::nullopt;
  uint64_t n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  return n;
}

std::string SnapshotManifest::Format() const {
  std::string out = "toss-snapshot " +
                    std::to_string(kSnapshotFormatVersion) + "\n";
  if (wal.has_value()) {
    out += "wal " + wal->file + " " + std::to_string(wal->start_seq) + "\n";
  }
  for (const ManifestCollection& coll : collections) {
    out += "collection " + coll.subdir + " " +
           std::to_string(coll.docs.size()) + " " + EscapeKey(coll.name) +
           "\n";
    for (const ManifestDoc& doc : coll.docs) {
      char crc[16];
      std::snprintf(crc, sizeof(crc), "%08x", doc.crc32);
      out += "doc " + doc.file + " " + std::to_string(doc.bytes) + " " + crc +
             " " + EscapeKey(doc.key) + "\n";
    }
  }
  out += "end-snapshot\n";
  return out;
}

Result<SnapshotManifest> ParseManifest(std::string_view text) {
  SnapshotManifest manifest;
  size_t pos = 0;
  size_t line_no = 0;
  bool saw_header = false;
  bool saw_end = false;
  uint64_t docs_expected = 0;

  while (pos <= text.size()) {
    if (pos == text.size()) break;
    size_t eol = text.find('\n', pos);
    // The writer terminates every line; a line without '\n' is truncation.
    if (eol == std::string_view::npos) {
      return Status::ParseError("manifest truncated mid-line (line " +
                                std::to_string(line_no + 1) + ")");
    }
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;

    if (saw_end) {
      return Status::ParseError("manifest has content after end-snapshot");
    }
    if (!saw_header) {
      if (!StartsWith(line, "toss-snapshot ")) {
        return Status::ParseError("manifest missing toss-snapshot header");
      }
      long long version = 0;
      if (!ParseInt(line.substr(14), &version)) {
        return Status::ParseError("manifest has malformed version: '" +
                                  std::string(line) + "'");
      }
      if (version != kSnapshotFormatVersion) {
        return Status::Unsupported("manifest version " +
                                   std::to_string(version) +
                                   " is not supported (expected " +
                                   std::to_string(kSnapshotFormatVersion) +
                                   ")");
      }
      saw_header = true;
      continue;
    }
    if (line == "end-snapshot") {
      if (docs_expected != 0) {
        return Status::ParseError("manifest collection '" +
                                  manifest.collections.back().name +
                                  "' is missing document entries");
      }
      saw_end = true;
      continue;
    }
    if (StartsWith(line, "wal ")) {
      // wal <file> <start-seq>; generation-wide, so it precedes every
      // collection.
      if (manifest.wal.has_value()) {
        return Status::ParseError("manifest has duplicate wal line");
      }
      if (!manifest.collections.empty()) {
        return Status::ParseError("manifest wal line must precede collections");
      }
      std::string_view rest = line.substr(4);
      size_t sp1 = rest.find(' ');
      if (sp1 == std::string_view::npos ||
          rest.find(' ', sp1 + 1) != std::string_view::npos) {
        return Status::ParseError("malformed wal line: '" + std::string(line) +
                                  "'");
      }
      ManifestWal wal;
      wal.file = std::string(rest.substr(0, sp1));
      long long seq = 0;
      if (wal.file.empty() || !ParseWalFileName(wal.file) ||
          !ParseInt(rest.substr(sp1 + 1), &seq) || seq < 0) {
        return Status::ParseError("malformed wal line: '" + std::string(line) +
                                  "'");
      }
      wal.start_seq = static_cast<uint64_t>(seq);
      manifest.wal = std::move(wal);
      continue;
    }
    if (StartsWith(line, "collection ")) {
      if (docs_expected != 0) {
        return Status::ParseError("manifest collection '" +
                                  manifest.collections.back().name +
                                  "' is missing document entries");
      }
      // collection <subdir> <ndocs> <escaped-name>; name may be empty only
      // if the escaped field is empty, which CreateCollection rejects later.
      std::string_view rest = line.substr(11);
      size_t sp1 = rest.find(' ');
      if (sp1 == std::string_view::npos) {
        return Status::ParseError("malformed collection line: '" +
                                  std::string(line) + "'");
      }
      size_t sp2 = rest.find(' ', sp1 + 1);
      if (sp2 == std::string_view::npos) {
        return Status::ParseError("malformed collection line: '" +
                                  std::string(line) + "'");
      }
      ManifestCollection coll;
      coll.subdir = std::string(rest.substr(0, sp1));
      long long ndocs = 0;
      if (!ParseInt(rest.substr(sp1 + 1, sp2 - sp1 - 1), &ndocs) ||
          ndocs < 0) {
        return Status::ParseError("malformed document count in: '" +
                                  std::string(line) + "'");
      }
      TOSS_ASSIGN_OR_RETURN(coll.name, UnescapeKey(rest.substr(sp2 + 1)));
      docs_expected = static_cast<uint64_t>(ndocs);
      manifest.collections.push_back(std::move(coll));
      continue;
    }
    if (StartsWith(line, "doc ")) {
      if (manifest.collections.empty() || docs_expected == 0) {
        return Status::ParseError("doc line outside a collection: '" +
                                  std::string(line) + "'");
      }
      // doc <file> <bytes> <crc32-hex> <escaped-key>; the key is the full
      // remainder and may be empty or contain spaces.
      std::string_view rest = line.substr(4);
      size_t sp1 = rest.find(' ');
      size_t sp2 = sp1 == std::string_view::npos
                       ? std::string_view::npos
                       : rest.find(' ', sp1 + 1);
      size_t sp3 = sp2 == std::string_view::npos
                       ? std::string_view::npos
                       : rest.find(' ', sp2 + 1);
      if (sp3 == std::string_view::npos) {
        return Status::ParseError("malformed doc line: '" +
                                  std::string(line) + "'");
      }
      ManifestDoc doc;
      doc.file = std::string(rest.substr(0, sp1));
      long long bytes = 0;
      if (!ParseInt(rest.substr(sp1 + 1, sp2 - sp1 - 1), &bytes) ||
          bytes < 0) {
        return Status::ParseError("malformed byte count in: '" +
                                  std::string(line) + "'");
      }
      doc.bytes = static_cast<uint64_t>(bytes);
      std::string_view crc = rest.substr(sp2 + 1, sp3 - sp2 - 1);
      if (crc.empty() || crc.size() > 8) {
        return Status::ParseError("malformed crc32 in: '" +
                                  std::string(line) + "'");
      }
      uint32_t crc_value = 0;
      for (char c : crc) {
        int digit = HexDigit(c);
        if (digit < 0) {
          return Status::ParseError("malformed crc32 in: '" +
                                    std::string(line) + "'");
        }
        crc_value = crc_value * 16 + static_cast<uint32_t>(digit);
      }
      doc.crc32 = crc_value;
      TOSS_ASSIGN_OR_RETURN(doc.key, UnescapeKey(rest.substr(sp3 + 1)));
      manifest.collections.back().docs.push_back(std::move(doc));
      --docs_expected;
      continue;
    }
    return Status::ParseError("unrecognized manifest line: '" +
                              std::string(line) + "'");
  }

  if (!saw_header) {
    return Status::ParseError("manifest is empty");
  }
  if (!saw_end) {
    return Status::ParseError("manifest truncated: missing end-snapshot");
  }
  return manifest;
}

}  // namespace toss::store
