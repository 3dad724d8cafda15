#include "store/database.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "store/snapshot.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace toss::store {

namespace fs = std::filesystem;

namespace {

struct DbMetrics {
  obs::Counter& saves = obs::Metrics().GetCounter("store.db.saves");
  obs::Counter& opens = obs::Metrics().GetCounter("store.db.opens");
  obs::Counter& degraded_opens =
      obs::Metrics().GetCounter("store.db.degraded_opens");
  obs::Counter& discarded_generations =
      obs::Metrics().GetCounter("store.db.discarded_generations");
  obs::Histogram& save_ns =
      obs::Metrics().GetHistogram("store.db.save_latency_ns");
  obs::Histogram& open_ns =
      obs::Metrics().GetHistogram("store.db.open_latency_ns");
  obs::Counter& wal_replay_records =
      obs::Metrics().GetCounter("store.wal.replay.records");
  obs::Counter& wal_torn_tails =
      obs::Metrics().GetCounter("store.wal.replay.torn_tail_truncations");
  obs::Counter& wal_checkpoints =
      obs::Metrics().GetCounter("store.wal.checkpoints");
  obs::Counter& wal_mutations =
      obs::Metrics().GetCounter("store.wal.mutations");
  obs::Counter& wal_mutation_errors =
      obs::Metrics().GetCounter("store.wal.mutation_errors");
};

DbMetrics& Instruments() {
  static DbMetrics* m = new DbMetrics();
  return *m;
}

/// Document payloads are stored as 000000.xml, 000001.xml, ... with the
/// real keys escaped into the MANIFEST; keys never touch the filesystem.
std::string DocFileName(size_t ordinal) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06zu.xml", ordinal);
  return buf;
}

/// Collection subdirectories are likewise ordinals (c000000, ...), so
/// collection names containing path separators cannot escape the snapshot.
std::string CollectionDirName(size_t ordinal) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "c%06zu", ordinal);
  return buf;
}

std::string PathJoin(const std::string& a, const std::string& b) {
  return (fs::path(a) / b).string();
}

/// Loads one sealed generation, verifying byte counts and checksums.
/// `wal_out` (optional) receives the generation's tail-log descriptor.
Result<Database> LoadGeneration(const std::string& dir,
                                const std::string& gen, Env* env,
                                std::optional<ManifestWal>* wal_out = nullptr) {
  std::string gdir = PathJoin(dir, gen);
  TOSS_ASSIGN_OR_RETURN(std::string manifest_text,
                        env->ReadFile(PathJoin(gdir, kManifestFileName)));
  TOSS_ASSIGN_OR_RETURN(SnapshotManifest manifest,
                        ParseManifest(manifest_text));
  if (wal_out != nullptr) *wal_out = manifest.wal;
  Database db;
  for (const ManifestCollection& mc : manifest.collections) {
    TOSS_ASSIGN_OR_RETURN(Collection * coll, db.CreateCollection(mc.name));
    std::string cdir = PathJoin(gdir, mc.subdir);
    for (const ManifestDoc& md : mc.docs) {
      std::string path = PathJoin(cdir, md.file);
      TOSS_ASSIGN_OR_RETURN(std::string payload, env->ReadFile(path));
      if (payload.size() != md.bytes) {
        return Status::IOError(
            "truncated payload " + path + ": manifest records " +
            std::to_string(md.bytes) + " bytes, found " +
            std::to_string(payload.size()));
      }
      if (Crc32(payload) != md.crc32) {
        return Status::IOError("checksum mismatch for " + path);
      }
      TOSS_ASSIGN_OR_RETURN(DocId id, coll->InsertXml(md.key, payload));
      (void)id;
    }
  }
  return db;
}

/// Replays the generation's tail log over `db` per the rules in wal.h: a
/// torn final record is discarded (reported, not fatal); everything else
/// that fails -- mid-log corruption, a record the in-memory state rejects
/// -- poisons the WHOLE open, because an acknowledged mutation can no
/// longer be trusted and degrading would silently drop durable data.
Status ReplayWal(Database* db, const std::string& dir, const ManifestWal& wal,
                 Env* env, RecoveryReport* rep, obs::Span* parent) {
  DbMetrics& m = Instruments();
  obs::Span replay_span(parent, "wal_replay");
  replay_span.Annotate("file", wal.file);
  RecoveryReport::WalReplay replay;
  replay.file = wal.file;
  replay.next_seq = wal.start_seq;
  const std::string path = PathJoin(dir, wal.file);
  // An absent segment is an empty log (checkpoints never create the file).
  if (env->FileExists(path)) {
    TOSS_ASSIGN_OR_RETURN(std::string text, env->ReadFile(path));
    TOSS_ASSIGN_OR_RETURN(ParsedWal parsed,
                          ParseWalLog(text, wal.start_seq));
    for (const WalRecord& rec : parsed.records) {
      Status st = Database::ApplyWalRecord(db, rec);
      if (!st.ok()) {
        return Status::IOError("wal corruption: committed record " +
                               std::to_string(replay.next_seq +
                                              replay.records_replayed) +
                               " in " + path +
                               " does not apply: " + st.ToString());
      }
      ++replay.records_replayed;
    }
    replay.next_seq = parsed.next_seq;
    replay.intact_bytes = parsed.intact_bytes;
    replay.torn_tail = parsed.torn_tail;
    replay.torn_reason = std::move(parsed.torn_reason);
    m.wal_replay_records.Add(replay.records_replayed);
    if (replay.torn_tail) m.wal_torn_tails.Increment();
  }
  replay_span.Annotate("records_replayed", replay.records_replayed);
  replay_span.Annotate("torn_tail", replay.torn_tail ? uint64_t{1} : 0);
  rep->wal = std::move(replay);
  return Status::OK();
}

}  // namespace

Result<Collection*> Database::CreateCollection(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("collection name must be non-empty");
  }
  auto [it, inserted] =
      collections_.insert({name, std::make_unique<Collection>(name)});
  if (!inserted) {
    return Status::AlreadyExists("collection '" + name + "' already exists");
  }
  return it->second.get();
}

Result<Collection*> Database::GetCollection(const std::string& name) {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  return it->second.get();
}

Result<const Collection*> Database::GetCollection(
    const std::string& name) const {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  return static_cast<const Collection*>(it->second.get());
}

Status Database::DropCollection(const std::string& name) {
  if (collections_.erase(name) == 0) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> Database::CollectionNames() const {
  std::vector<std::string> out;
  for (const auto& [name, c] : collections_) out.push_back(name);
  return out;
}

Status Database::Save(const std::string& dir) const {
  return Save(dir, Env::Default());
}

Status Database::Save(const std::string& dir, Env* env,
                      const RetryPolicy& retry, obs::Span* span) const {
  if (durable_ != nullptr) {
    // A plain Save would commit a generation with no wal line while the
    // attached writer keeps appending to an orphaned segment -- acked
    // mutations would vanish on reopen.
    return Status::InvalidArgument(
        "durable database: use Checkpoint(), not Save()");
  }
  return SaveImpl(dir, env, retry, span, std::nullopt, nullptr);
}

Status Database::SaveImpl(const std::string& dir, Env* env,
                          const RetryPolicy& retry, obs::Span* span,
                          const std::optional<uint64_t>& wal_start_seq,
                          ManifestWal* wal_out) const {
  DbMetrics& m = Instruments();
  m.saves.Increment();
  Timer save_timer;
  auto Run = [&](const std::function<Status()>& op) {
    return RetryTransient(env, retry, op);
  };

  obs::Span prepare_span(span, "prepare");
  TOSS_RETURN_NOT_OK(Run([&] { return env->CreateDirs(dir); }));

  // Pick the next generation number past everything on disk -- committed
  // generations AND stale gen-*.tmp builds left by crashed saves. The
  // stale entries are ignored as data but remembered for post-commit
  // cleanup, as are wal segments (the new generation references either a
  // fresh segment or none); nothing may be deleted before the new
  // generation commits.
  uint64_t next_gen = 1;
  std::vector<std::string> cleanup_after_commit;
  {
    auto listing = env->ListDir(dir);
    if (listing.ok()) {
      for (const std::string& entry : *listing) {
        std::optional<uint64_t> n = ParseGenerationDirName(entry);
        if (!n) n = ParseTempGenerationDirName(entry);
        if (!n) n = ParseWalFileName(entry);
        if (n) {
          next_gen = std::max(next_gen, *n + 1);
          cleanup_after_commit.push_back(entry);
        }
      }
    }
  }

  const std::string gen_name = GenerationDirName(next_gen);
  const std::string tmp_dir = PathJoin(dir, TempGenerationDirName(next_gen));
  TOSS_RETURN_NOT_OK(Run([&] { return env->RemoveAll(tmp_dir); }));
  TOSS_RETURN_NOT_OK(Run([&] { return env->CreateDirs(tmp_dir); }));
  prepare_span.Annotate("generation", gen_name);
  prepare_span.End();

  obs::Span write_span(span, "write_docs");
  size_t docs_written = 0;
  SnapshotManifest manifest;
  size_t coll_ordinal = 0;
  for (const auto& [name, coll] : collections_) {
    ManifestCollection mc;
    mc.name = name;
    mc.subdir = CollectionDirName(coll_ordinal++);
    std::string cdir = PathJoin(tmp_dir, mc.subdir);
    TOSS_RETURN_NOT_OK(Run([&] { return env->CreateDirs(cdir); }));
    size_t doc_ordinal = 0;
    for (DocId id : coll->AllDocs()) {
      ManifestDoc md;
      md.file = DocFileName(doc_ordinal++);
      md.key = coll->key(id);
      std::string payload = xml::Write(coll->document(id));
      md.bytes = payload.size();
      md.crc32 = Crc32(payload);
      std::string path = PathJoin(cdir, md.file);
      TOSS_RETURN_NOT_OK(Run([&] { return env->WriteFile(path, payload); }));
      TOSS_RETURN_NOT_OK(Run([&] { return env->SyncFile(path); }));
      mc.docs.push_back(std::move(md));
      ++docs_written;
    }
    manifest.collections.push_back(std::move(mc));
  }

  write_span.Annotate("docs_written", static_cast<uint64_t>(docs_written));
  write_span.End();

  // Checkpoints declare a fresh tail-log segment. The file is NOT created
  // here -- an absent log is an empty log -- so the manifest can commit
  // atomically with "no mutations since this snapshot" semantics.
  if (wal_start_seq.has_value()) {
    ManifestWal wal;
    wal.file = WalFileName(next_gen);
    wal.start_seq = *wal_start_seq;
    if (wal_out != nullptr) *wal_out = wal;
    manifest.wal = std::move(wal);
  }

  obs::Span commit_span(span, "commit");
  const std::string manifest_path = PathJoin(tmp_dir, kManifestFileName);
  TOSS_RETURN_NOT_OK(
      Run([&] { return env->WriteFile(manifest_path, manifest.Format()); }));
  TOSS_RETURN_NOT_OK(Run([&] { return env->SyncFile(manifest_path); }));

  // Seal the generation, then commit it by swinging CURRENT. Both renames
  // are atomic; the directory fsyncs make them durable in order.
  TOSS_RETURN_NOT_OK(
      Run([&] { return env->RenameFile(tmp_dir, PathJoin(dir, gen_name)); }));
  TOSS_RETURN_NOT_OK(Run([&] { return env->SyncDir(dir); }));
  const std::string current_tmp = PathJoin(dir, "CURRENT.tmp");
  TOSS_RETURN_NOT_OK(
      Run([&] { return env->WriteFile(current_tmp, gen_name + "\n"); }));
  TOSS_RETURN_NOT_OK(Run([&] { return env->SyncFile(current_tmp); }));
  TOSS_RETURN_NOT_OK(Run([&] {
    return env->RenameFile(current_tmp, PathJoin(dir, kCurrentFileName));
  }));
  TOSS_RETURN_NOT_OK(Run([&] { return env->SyncDir(dir); }));
  commit_span.End();

  obs::Span cleanup_span(span, "cleanup");
  // Post-commit cleanup is best-effort: the new generation is already
  // durable, so a failure (or crash) here merely leaves extra files for
  // the next Save to collect. Transient errors still get the retry/backoff
  // treatment; hard errors are swallowed.
  for (const std::string& entry : cleanup_after_commit) {
    (void)Run([&] { return env->RemoveAll(PathJoin(dir, entry)); });
  }
  cleanup_span.End();
  m.save_ns.Record(static_cast<uint64_t>(save_timer.ElapsedNanos()));
  return Status::OK();
}

Result<Database> Database::Open(const std::string& dir) {
  return Open(dir, Env::Default(), nullptr);
}

Result<Database> Database::Open(const std::string& dir, Env* env,
                                RecoveryReport* report, obs::Span* span) {
  DbMetrics& m = Instruments();
  m.opens.Increment();
  Timer open_timer;
  RecoveryReport local;
  RecoveryReport& rep = report ? *report : local;
  rep = RecoveryReport{};

  // One finalizer for every return path: record the latency histogram and,
  // when the load had to discard anything, the recovery counters.
  auto Finish = [&](Result<Database> db) -> Result<Database> {
    m.open_ns.Record(static_cast<uint64_t>(open_timer.ElapsedNanos()));
    m.discarded_generations.Add(rep.discarded.size());
    if (rep.degraded()) m.degraded_opens.Increment();
    if (span != nullptr && span->enabled()) {
      span->Annotate("loaded_generation", rep.loaded_generation);
      span->Annotate("discarded", static_cast<uint64_t>(rep.discarded.size()));
      span->Annotate("degraded", rep.degraded() ? "true" : "false");
    }
    return db;
  };

  // Enumerate committed generations, newest first. gen-*.tmp builds were
  // never committed and are never read.
  obs::Span scan_span(span, "scan");
  std::vector<std::pair<uint64_t, std::string>> generations;
  bool dir_listed = false;
  {
    auto listing = env->ListDir(dir);
    if (listing.ok()) {
      dir_listed = true;
      for (const std::string& entry : *listing) {
        if (std::optional<uint64_t> n = ParseGenerationDirName(entry)) {
          generations.emplace_back(*n, entry);
        }
      }
      std::sort(generations.begin(), generations.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
    }
  }

  // The generation CURRENT commits to is authoritative; try it first.
  std::string current;
  const std::string current_path = PathJoin(dir, kCurrentFileName);
  if (env->FileExists(current_path)) {
    auto pointer = env->ReadFile(current_path);
    if (pointer.ok()) {
      std::string_view trimmed = Trim(*pointer);
      if (ParseGenerationDirName(trimmed)) {
        current = std::string(trimmed);
      } else {
        rep.discarded.push_back(
            {"CURRENT", "garbage CURRENT pointer: '" +
                            std::string(trimmed.substr(0, 64)) + "'"});
      }
    } else {
      rep.discarded.push_back({"CURRENT", pointer.status().ToString()});
    }
  }
  scan_span.End();

  obs::Span load_span(span, "load");
  if (!current.empty()) {
    std::optional<ManifestWal> wal;
    auto db = LoadGeneration(dir, current, env, &wal);
    if (db.ok()) {
      rep.loaded_generation = current;
      if (wal.has_value()) {
        // Tail-log replay. A corrupt log fails the WHOLE open -- degrading
        // to an older generation would silently drop acknowledged
        // mutations (a torn final record is tolerated inside ReplayWal).
        Status replayed = ReplayWal(&*db, dir, *wal, env, &rep, &load_span);
        if (!replayed.ok()) return Finish(replayed);
      }
      return Finish(std::move(db));
    }
    rep.discarded.push_back({current, db.status().ToString()});
  }

  // Degrade to the newest other intact generation.
  for (const auto& [n, gen] : generations) {
    if (gen == current) continue;
    std::optional<ManifestWal> wal;
    auto db = LoadGeneration(dir, gen, env, &wal);
    if (db.ok()) {
      rep.loaded_generation = gen;
      if (wal.has_value()) {
        Status replayed = ReplayWal(&*db, dir, *wal, env, &rep, &load_span);
        if (!replayed.ok()) return Finish(replayed);
      }
      return Finish(std::move(db));
    }
    rep.discarded.push_back({gen, db.status().ToString()});
  }

  std::string detail;
  for (const auto& d : rep.discarded) {
    detail += "; " + d.generation + ": " + d.reason;
  }
  if (!dir_listed) detail += "; directory unreadable";
  return Finish(Status::IOError("no intact snapshot in " + dir + detail));
}

// ---------------------------------------------------------------------------
// Durable live ingest
// ---------------------------------------------------------------------------

Result<Database> Database::OpenDurable(const std::string& dir, Env* env,
                                       RecoveryReport* report) {
  return OpenDurable(dir, env, DurableOptions(), report);
}

Result<Database> Database::OpenDurable(const std::string& dir, Env* env,
                                       const DurableOptions& options,
                                       RecoveryReport* report) {
  RecoveryReport local;
  RecoveryReport& rep = report ? *report : local;

  Database db;
  auto opened = Open(dir, env, &rep);
  if (opened.ok()) {
    db = std::move(*opened);
  } else {
    if (!options.create_if_missing) return opened.status();
    // Bootstrap an empty database -- but only over a directory with no
    // snapshot-shaped content at all. Generations, a CURRENT pointer, or
    // stray wal segments mean data existed and failed to load; clobbering it with an empty checkpoint would destroy it.
    bool pristine = true;
    auto listing = env->ListDir(dir);
    if (listing.ok()) {
      for (const std::string& entry : *listing) {
        if (ParseGenerationDirName(entry) || ParseWalFileName(entry) ||
            entry == kCurrentFileName) {
          pristine = false;
          break;
        }
      }
    }
    if (!pristine) return opened.status();
    rep = RecoveryReport{};
    db = Database{};
  }

  db.durable_ = std::make_unique<DurableState>();
  db.durable_->dir = dir;
  db.durable_->env = env;
  db.durable_->options = options;

  if (rep.wal.has_value()) {
    // The loaded generation already has a log: drop any torn tail from
    // disk (its write was never acknowledged), then append where replay
    // left off.
    const RecoveryReport::WalReplay& rw = *rep.wal;
    const std::string path = PathJoin(dir, rw.file);
    if (rw.torn_tail && env->FileExists(path)) {
      TOSS_ASSIGN_OR_RETURN(std::string text, env->ReadFile(path));
      const std::string intact =
          text.substr(0, std::min<size_t>(text.size(), rw.intact_bytes));
      TOSS_RETURN_NOT_OK(RetryTransient(env, options.retry, [&] {
        return env->WriteFile(path, intact);
      }));
      TOSS_RETURN_NOT_OK(RetryTransient(
          env, options.retry, [&] { return env->SyncFile(path); }));
    }
    db.durable_->writer =
        std::make_unique<WalWriter>(env, path, rw.next_seq, options.wal);
  } else {
    // Plain-Save generation or fresh bootstrap: no log exists yet.
    // Checkpoint once to commit a generation that declares one.
    TOSS_RETURN_NOT_OK(db.Checkpoint());
  }
  return db;
}

Status Database::Checkpoint(obs::Span* span) {
  if (durable_ == nullptr) {
    return Status::InvalidArgument("Checkpoint requires OpenDurable");
  }
  DurableState& d = *durable_;
  std::lock_guard<std::mutex> lock(d.mu);
  // Holding d.mu blocks new enqueues, so writer idleness is stable for
  // the duration; an in-flight batch bails out before anything changes.
  if (d.writer != nullptr && !d.writer->Idle()) {
    return Status::Unavailable("checkpoint with durable appends in flight");
  }
  const uint64_t start_seq = d.writer != nullptr ? d.writer->next_seq() : 1;
  if (span != nullptr) {
    span->Annotate("wal_start_seq", start_seq);
  }
  ManifestWal wal;
  TOSS_RETURN_NOT_OK(
      SaveImpl(d.dir, d.env, d.options.retry, span, start_seq, &wal));
  // The snapshot now owns every applied mutation; swing the writer onto
  // the fresh (empty) segment the new MANIFEST references. This clears
  // any poison from an earlier append failure.
  const std::string wal_path = PathJoin(d.dir, wal.file);
  obs::Span rotate_span(span, "wal_rotate");
  rotate_span.Annotate("segment", wal.file);
  if (d.writer != nullptr) {
    TOSS_RETURN_NOT_OK(d.writer->Rotate(wal_path));
  } else {
    d.writer = std::make_unique<WalWriter>(d.env, wal_path, start_seq,
                                           d.options.wal);
  }
  rotate_span.End();
  d.pending.clear();
  Instruments().wal_checkpoints.Increment();
  return Status::OK();
}

Status Database::DurableInsert(const std::string& collection,
                               const std::string& key, const std::string& xml,
                               obs::Span* span) {
  return DurableMutate(WalOp::kInsert, collection, key, xml, span);
}

Status Database::DurableReplace(const std::string& collection,
                                const std::string& key, const std::string& xml,
                                obs::Span* span) {
  return DurableMutate(WalOp::kReplace, collection, key, xml, span);
}

Status Database::DurableRemove(const std::string& collection,
                               const std::string& key, obs::Span* span) {
  return DurableMutate(WalOp::kRemove, collection, key, std::string(), span);
}

Status Database::DurableMutate(WalOp op, const std::string& collection,
                               const std::string& key, const std::string& xml,
                               obs::Span* span) {
  if (durable_ == nullptr) {
    return Status::InvalidArgument(
        "durable mutations require OpenDurable");
  }
  if (collection.empty()) {
    return Status::InvalidArgument("collection name must be non-empty");
  }
  DbMetrics& m = Instruments();
  DurableState& d = *durable_;

  WalRecord rec;
  rec.op = op;
  rec.collection = collection;
  rec.key = key;
  rec.xml = xml;

  std::shared_ptr<WalWriter::Pending> ticket;
  obs::Span validate_span(span, "wal_validate");
  validate_span.Annotate("collection", collection);
  validate_span.Annotate("op", op == WalOp::kInsert    ? "insert"
                               : op == WalOp::kReplace ? "replace"
                                                       : "remove");
  {
    // Validate against the EFFECTIVE state -- in-memory contents plus the
    // overlay of queued-but-unapplied mutations -- and enqueue atomically,
    // so two racing inserts of one key cannot both reach the log (replay
    // would then reject it as corrupt). The lock is dropped before the
    // group-commit wait: validation stays concurrent with fsyncs.
    std::lock_guard<std::mutex> lock(d.mu);
    bool present = false;
    bool overlaid = false;
    if (auto cit = d.pending.find(collection); cit != d.pending.end()) {
      if (auto kit = cit->second.find(key); kit != cit->second.end()) {
        present = kit->second.present;
        overlaid = true;
      }
    }
    if (!overlaid) {
      auto it = collections_.find(collection);
      present = it != collections_.end() && it->second->FindKey(key).ok();
    }
    switch (op) {
      case WalOp::kInsert:
        if (present) {
          return Status::AlreadyExists("key '" + key +
                                       "' already exists in collection '" +
                                       collection + "'");
        }
        break;
      case WalOp::kReplace:
      case WalOp::kRemove:
        if (!present) {
          return Status::NotFound("no document under key '" + key +
                                  "' in collection '" + collection + "'");
        }
        break;
    }
    if (op != WalOp::kRemove) {
      // Reject malformed XML before it reaches the log; replay must never
      // meet a record it cannot apply.
      auto doc = xml::Parse(xml);
      if (!doc.ok()) return doc.status();
    }
    ticket = d.writer->Enqueue(
        FormatWalPayload(rec), [this, rec]() -> Status {
          // Batch leader, post-fsync, in sequence order. Takes d.mu (never
          // held by a group-commit waiter) to apply and drain the overlay.
          std::lock_guard<std::mutex> alock(durable_->mu);
          Status applied = ApplyWalRecord(this, rec);
          auto cit = durable_->pending.find(rec.collection);
          if (cit != durable_->pending.end()) {
            auto kit = cit->second.find(rec.key);
            if (kit != cit->second.end() && --kit->second.ops == 0) {
              cit->second.erase(kit);
            }
            if (cit->second.empty()) durable_->pending.erase(cit);
          }
          return applied;
        });
    if (ticket == nullptr) {
      m.wal_mutation_errors.Increment();
      return Status::IOError(
          "wal writer poisoned by an earlier append failure; Checkpoint() "
          "to rotate the log and resume ingest");
    }
    PendingKey& entry = d.pending[collection][key];
    entry.present = op != WalOp::kRemove;
    entry.ops++;
    // Exact under d.mu: every Enqueue happens inside this lock.
    validate_span.Annotate("seq", d.writer->next_seq() - 1);
  }
  validate_span.End();

  // The group-commit wait covers the leader's append + fsync (possibly
  // batched with other mutations) and the in-order apply.
  obs::Span commit_span(span, "wal_commit");
  Status st = d.writer->Wait(ticket);
  commit_span.Annotate("ok", st.ok() ? uint64_t{1} : 0);
  commit_span.End();
  if (!ticket->applied) {
    // The batch failed before fsync: the apply never ran, so its overlay
    // claim must be withdrawn here or the key stays phantom-present.
    std::lock_guard<std::mutex> lock(d.mu);
    auto cit = d.pending.find(collection);
    if (cit != d.pending.end()) {
      auto kit = cit->second.find(key);
      if (kit != cit->second.end() && --kit->second.ops == 0) {
        cit->second.erase(kit);
      }
      if (cit->second.empty()) d.pending.erase(cit);
    }
  }
  if (st.ok()) {
    m.wal_mutations.Increment();
  } else {
    m.wal_mutation_errors.Increment();
  }
  return st;
}

Status Database::ApplyWalRecord(Database* db, const WalRecord& rec) {
  switch (rec.op) {
    case WalOp::kInsert: {
      Collection* coll = nullptr;
      auto it = db->collections_.find(rec.collection);
      if (it != db->collections_.end()) {
        coll = it->second.get();
      } else {
        TOSS_ASSIGN_OR_RETURN(coll, db->CreateCollection(rec.collection));
      }
      TOSS_ASSIGN_OR_RETURN(DocId id, coll->InsertXml(rec.key, rec.xml));
      (void)id;
      return Status::OK();
    }
    case WalOp::kReplace: {
      TOSS_ASSIGN_OR_RETURN(Collection * coll,
                            db->GetCollection(rec.collection));
      TOSS_ASSIGN_OR_RETURN(xml::XmlDocument doc, xml::Parse(rec.xml));
      TOSS_ASSIGN_OR_RETURN(DocId id, coll->Replace(rec.key, std::move(doc)));
      (void)id;
      return Status::OK();
    }
    case WalOp::kRemove: {
      TOSS_ASSIGN_OR_RETURN(Collection * coll,
                            db->GetCollection(rec.collection));
      return coll->Remove(rec.key);
    }
  }
  return Status::Internal("unreachable wal op");
}

uint64_t Database::WalNextSeq() const {
  if (durable_ == nullptr || durable_->writer == nullptr) return 0;
  return durable_->writer->next_seq();
}

WalWriter::Stats Database::GetWalStats() const {
  if (durable_ == nullptr || durable_->writer == nullptr) return {};
  return durable_->writer->GetStats();
}

}  // namespace toss::store
