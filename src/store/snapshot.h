// On-disk snapshot format of the crash-safe store (see DESIGN.md
// "Durability & recovery").
//
// A database directory holds immutable numbered generations plus a commit
// pointer:
//
//   <dir>/CURRENT                 -- "gen-<N>\n"; swapped by atomic rename
//   <dir>/gen-<N>/MANIFEST        -- versioned, self-validating (below)
//   <dir>/gen-<N>/c000000/000000.xml ...
//   <dir>/gen-<N>.tmp/            -- uncommitted build in progress (or a
//                                    stale one from a crash; ignored by
//                                    Open, cleaned by the next Save)
//
// MANIFEST grammar (text, line-oriented; <key> / <name> are %-escaped so
// newlines, '%', and control bytes round-trip):
//
//   toss-snapshot 2
//   wal <file> <start-seq>                  (optional, at most one)
//   collection <subdir> <ndocs> <escaped-name>
//   doc <file> <bytes> <crc32-hex> <escaped-key>
//   ...                                     (exactly <ndocs> doc lines)
//   end-snapshot
//
// The wal line names this generation's tail log (DESIGN.md "Write path &
// WAL"): durable mutations made after the checkpoint append to <file> (a
// sibling of the generation directories), and Open replays it over the
// loaded generation. <start-seq> is the sequence number the log's first
// record must carry; an absent file is an empty log. Generations written
// by a plain Save have no wal line and replay nothing.
//
// A generation holds documents only: no term dictionary and no index is
// persisted. Open re-inserts every document, which rebuilds the indexes
// and interns each tag as it is indexed; content terms intern when a
// document first decodes. Version 1 generations (which carried a SYMBOLS
// term-dictionary sidecar) are refused as Unsupported.
//
// Collection subdirectories and document filenames are ordinals, never
// derived from user-provided names/keys, so hostile keys cannot escape the
// snapshot directory. The trailing end-snapshot line makes truncation
// detectable; per-file byte counts and CRC32s make torn payloads
// detectable.

#ifndef TOSS_STORE_SNAPSHOT_H_
#define TOSS_STORE_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace toss::store {

inline constexpr char kCurrentFileName[] = "CURRENT";
inline constexpr char kManifestFileName[] = "MANIFEST";
inline constexpr int kSnapshotFormatVersion = 2;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `data`.
uint32_t Crc32(std::string_view data);

/// %-escapes `%`, CR, LF, and other control bytes so the result is a
/// single-line token-safe field. Lossless for arbitrary byte strings.
std::string EscapeKey(std::string_view key);

/// Inverse of EscapeKey. Malformed or non-canonical escapes (truncated
/// "%X", non-hex digits, raw control bytes) are rejected with ParseError.
Result<std::string> UnescapeKey(std::string_view escaped);

/// "gen-<n>" / "gen-<n>.tmp" directory naming.
std::string GenerationDirName(uint64_t n);
std::string TempGenerationDirName(uint64_t n);
std::optional<uint64_t> ParseGenerationDirName(std::string_view name);
std::optional<uint64_t> ParseTempGenerationDirName(std::string_view name);

/// "wal-<n>.log" tail-log naming (n = the generation the log applies to).
std::string WalFileName(uint64_t n);
std::optional<uint64_t> ParseWalFileName(std::string_view name);

struct ManifestDoc {
  std::string file;   ///< filename inside the collection subdir
  uint64_t bytes = 0;
  uint32_t crc32 = 0;
  std::string key;    ///< unescaped user key
};

struct ManifestCollection {
  std::string name;    ///< unescaped collection name
  std::string subdir;  ///< ordinal directory inside the generation
  std::vector<ManifestDoc> docs;
};

/// Descriptor of the generation's tail write-ahead log.
struct ManifestWal {
  std::string file;        ///< log filename, a sibling of the gen dirs
  uint64_t start_seq = 0;  ///< sequence number of the log's first record
};

struct SnapshotManifest {
  std::optional<ManifestWal> wal;
  std::vector<ManifestCollection> collections;

  std::string Format() const;
};

/// Parses and validates a MANIFEST. Truncated documents, unknown versions,
/// bad counts, and malformed escapes all yield typed errors (ParseError /
/// Unsupported), never a partially-filled manifest.
Result<SnapshotManifest> ParseManifest(std::string_view text);

}  // namespace toss::store

#endif  // TOSS_STORE_SNAPSHOT_H_
