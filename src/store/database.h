// Database: a named set of collections with crash-safe, generational
// directory persistence.
//
// On-disk layout (see snapshot.h and DESIGN.md "Durability & recovery"):
//   <dir>/CURRENT            -- commit pointer, "gen-<N>\n"
//   <dir>/gen-<N>/MANIFEST   -- versioned manifest with per-file CRC32s
//   <dir>/gen-<N>/c<ordinal>/<ordinal>.xml
//
// Save builds the next generation in gen-<N>.tmp, fsyncs every file,
// seals it with an atomic rename, and only then swings CURRENT (also via
// atomic rename); the previous generation is deleted strictly after the
// commit, so a crash or injected I/O failure at ANY point leaves either
// the old or the new state recoverable -- never a torn hybrid. Open
// verifies every checksum and degrades to the newest intact generation,
// reporting what it discarded through RecoveryReport.

#ifndef TOSS_STORE_DATABASE_H_
#define TOSS_STORE_DATABASE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/trace.h"
#include "store/collection.h"
#include "store/env.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace toss::store {

/// What Open had to discard or work around to produce a database. Empty
/// (no discards) after a clean load of a committed generation.
struct RecoveryReport {
  /// Generation that was loaded ("gen-<N>").
  std::string loaded_generation;

  struct Discarded {
    std::string generation;  ///< "gen-<N>", or "CURRENT" for a bad pointer
    std::string reason;      ///< the Status that disqualified it
  };
  /// Corrupt/unreadable generations skipped, newest first.
  std::vector<Discarded> discarded;

  /// Tail-log replay over the loaded generation (present iff its MANIFEST
  /// declared a wal line; see DESIGN.md "Write path & WAL").
  struct WalReplay {
    std::string file;              ///< log filename (sibling of gen dirs)
    uint64_t records_replayed = 0;
    uint64_t next_seq = 0;         ///< sequence the next append will carry
    uint64_t intact_bytes = 0;     ///< valid log prefix length on disk
    bool torn_tail = false;        ///< trailing partial record discarded
    std::string torn_reason;       ///< warn text for the discarded tail
  };
  std::optional<WalReplay> wal;

  /// True when recovery fell back past the committed generation.
  bool degraded() const { return !discarded.empty(); }
};

class Database {
 public:
  Database() = default;

  /// Creates an empty collection. AlreadyExists when the name is taken.
  Result<Collection*> CreateCollection(const std::string& name);

  /// Returns the named collection, or NotFound.
  Result<Collection*> GetCollection(const std::string& name);
  Result<const Collection*> GetCollection(const std::string& name) const;

  /// Drops the named collection.
  Status DropCollection(const std::string& name);

  std::vector<std::string> CollectionNames() const;
  size_t collection_count() const { return collections_.size(); }

  /// Writes a new committed generation under `dir` (created if needed).
  /// Transient (Unavailable) I/O errors are retried per `retry`; any other
  /// failure aborts the save with the previous generation still committed
  /// and intact. Older generations and stale gen-*.tmp build directories
  /// are removed only after the new generation is committed.
  /// When `span` is a live trace span, per-phase child spans (prepare,
  /// write_docs, commit, cleanup) are recorded under it; pass nullptr (the
  /// default) to skip tracing. `store.db.*` registry metrics are recorded
  /// either way.
  Status Save(const std::string& dir) const;
  Status Save(const std::string& dir, Env* env,
              const RetryPolicy& retry = RetryPolicy{},
              obs::Span* span = nullptr) const;

  /// Loads the newest intact generation under `dir` (preferring the one
  /// CURRENT commits to), verifying every file's byte count and CRC32.
  /// Corrupt generations are skipped and recorded in `report`; IOError
  /// when nothing intact remains.
  static Result<Database> Open(const std::string& dir);
  static Result<Database> Open(const std::string& dir, Env* env,
                               RecoveryReport* report = nullptr,
                               obs::Span* span = nullptr);

  // --- Durable live ingest (DESIGN.md "Write path & WAL") ------------------
  //
  // OpenDurable loads like Open, truncates any torn log tail, and attaches
  // a group-commit WalWriter. DurableInsert/Replace/Remove then validate,
  // append to the log, and apply in memory only after the covering fsync
  // returned -- a mutation that returns OK survives any crash. Checkpoint
  // folds the log back into a fresh snapshot generation and truncates it.

  struct DurableOptions {
    /// Bootstrap an empty durable database when `dir` holds no snapshot
    /// (a directory with existing-but-corrupt data still fails loudly).
    bool create_if_missing = true;
    /// Group-commit tuning for the attached WalWriter.
    WalWriterOptions wal;
    /// Retry/backoff for checkpoint saves and log-tail truncation.
    RetryPolicy retry;
  };

  /// Opens `dir` for durable mutation: replays the tail log (tolerating a
  /// torn final record, which is truncated away and reported via
  /// `report->wal`), rejects mid-log corruption, and leaves the database
  /// accepting DurableInsert/Replace/Remove. Generations written by a
  /// plain Save (no wal line) are checkpointed once to establish the log.
  static Result<Database> OpenDurable(const std::string& dir, Env* env,
                                      const DurableOptions& options,
                                      RecoveryReport* report = nullptr);
  static Result<Database> OpenDurable(const std::string& dir, Env* env,
                                      RecoveryReport* report = nullptr);

  /// True when this database was produced by OpenDurable.
  bool durable() const { return durable_ != nullptr; }

  /// Durably adds a document under `key` in `collection` (created on first
  /// insert). Blocks until the record is fsynced (group-committed) and
  /// applied; on OK the mutation survives any crash. AlreadyExists /
  /// ParseError surface before anything is logged; IOError when the log
  /// write failed (mutation NOT applied; the writer is poisoned until the
  /// next Checkpoint).
  /// All three accept an optional trace span; when given, the append ->
  /// fsync -> apply pipeline is recorded as wal_validate / wal_commit
  /// children with the logged sequence number annotated.
  Status DurableInsert(const std::string& collection, const std::string& key,
                       const std::string& xml, obs::Span* span = nullptr);

  /// Durably replaces the document under `key`. NotFound when absent.
  Status DurableReplace(const std::string& collection, const std::string& key,
                        const std::string& xml, obs::Span* span = nullptr);

  /// Durably removes the document under `key`. NotFound when absent.
  Status DurableRemove(const std::string& collection, const std::string& key,
                       obs::Span* span = nullptr);

  /// Writes a fresh snapshot generation whose MANIFEST points at a new,
  /// empty log segment, rotates the writer onto it (clearing any poison),
  /// and deletes the old segment. Unavailable when appends are in flight;
  /// callers must not mutate concurrently (TossService holds its exclusive
  /// lock across this).
  Status Checkpoint(obs::Span* span = nullptr);

  /// Sequence number the next durable mutation will log (durable only).
  uint64_t WalNextSeq() const;

  /// Group-commit writer statistics -- appends, durable records, fsync
  /// batches, largest batch (all zero for a non-durable database).
  WalWriter::Stats GetWalStats() const;

  /// Applies one logged mutation to `db`'s in-memory state (shared
  /// between the commit path and Open's replay; public so tests can drive
  /// replay directly). Failure during replay means the log lied about a
  /// committed mutation -- corruption.
  static Status ApplyWalRecord(Database* db, const WalRecord& rec);

 private:
  /// Pending-presence overlay entry: the key's visibility once every
  /// queued-but-unapplied mutation on it commits, plus how many such
  /// mutations are outstanding (the entry dies when the count drains).
  struct PendingKey {
    bool present = false;
    uint64_t ops = 0;
  };

  /// State attached by OpenDurable. Lives behind a pointer so Database
  /// stays movable (Open returns by value); the mutex guards collections_
  /// mutation, the overlay, and checkpointing -- but is NEVER held across
  /// a group-commit wait, so validation stays concurrent with fsyncs.
  struct DurableState {
    std::string dir;
    Env* env = nullptr;
    DurableOptions options;
    std::unique_ptr<WalWriter> writer;
    mutable std::mutex mu;
    std::map<std::string, std::map<std::string, PendingKey>> pending;
  };

  /// Shared body of Save and Checkpoint. When `wal_start_seq` is set, the
  /// new generation's MANIFEST carries a wal line naming a fresh (not yet
  /// existing) segment for that sequence, reported back through `wal_out`.
  /// Orphaned wal-*.log segments are cleaned post-commit either way.
  Status SaveImpl(const std::string& dir, Env* env, const RetryPolicy& retry,
                  obs::Span* span, const std::optional<uint64_t>& wal_start_seq,
                  ManifestWal* wal_out) const;

  /// Validate + enqueue + wait for one durable mutation.
  Status DurableMutate(WalOp op, const std::string& collection,
                       const std::string& key, const std::string& xml,
                       obs::Span* span);

  std::map<std::string, std::unique_ptr<Collection>> collections_;
  std::unique_ptr<DurableState> durable_;
};

}  // namespace toss::store

#endif  // TOSS_STORE_DATABASE_H_
