// Write-ahead log units (src/store/wal.{h,cc}) and the durable mutation
// path layered on it (Database::OpenDurable / DurableInsert / Replace /
// Remove / Checkpoint, plus the TossService mutation front door).
//
// The replay contract under test: every intact record is applied in
// order; a torn FINAL record (an append whose fsync was never
// acknowledged) is discarded with a warning; anything else that is wrong
// -- checksum, sequence, structure -- rejects the whole log, because an
// acknowledged mutation can no longer be trusted. The randomized
// corruption property drives that contract with arbitrary bit flips,
// truncations, and duplicated tails.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "service/toss_service.h"
#include "store/database.h"
#include "store/env.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "xml/xml_writer.h"

namespace toss::store {
namespace {

namespace fs = std::filesystem;

WalRecord Rec(WalOp op, std::string coll, std::string key,
              std::string xml = "") {
  WalRecord r;
  r.op = op;
  r.collection = std::move(coll);
  r.key = std::move(key);
  r.xml = std::move(xml);
  return r;
}

std::string BuildLog(const std::vector<WalRecord>& records,
                     uint64_t start_seq) {
  std::string out;
  uint64_t seq = start_seq;
  for (const WalRecord& r : records) {
    out += FormatWalRecord(seq++, FormatWalPayload(r));
  }
  return out;
}

bool SameRecord(const WalRecord& a, const WalRecord& b) {
  return a.op == b.op && a.collection == b.collection && a.key == b.key &&
         a.xml == b.xml;
}

// --- Record format ---------------------------------------------------------

TEST(WalFormatTest, PayloadRoundTripsHostileBytes) {
  const WalRecord records[] = {
      Rec(WalOp::kInsert, "dblp", "a1", "<x>1</x>"),
      Rec(WalOp::kReplace, "with space", "key\nnewline", "<x>\n\n</x>"),
      Rec(WalOp::kInsert, "pct%25", "% raw %", "<a><b>%\n</b></a>"),
      Rec(WalOp::kRemove, "c\rr", std::string("nul\0key", 7)),
  };
  for (const WalRecord& r : records) {
    auto back = ParseWalPayload(FormatWalPayload(r));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(SameRecord(r, *back));
  }
}

TEST(WalFormatTest, MalformedPayloadsAreRejected) {
  EXPECT_FALSE(ParseWalPayload("").ok());
  EXPECT_FALSE(ParseWalPayload("insert dblp").ok());        // no key line
  EXPECT_FALSE(ParseWalPayload("upsert dblp\nk\n<x/>").ok());  // bad op
  EXPECT_FALSE(ParseWalPayload("insert\nk\n<x/>").ok());    // no space
  EXPECT_FALSE(ParseWalPayload("remove dblp\nk\n<x/>").ok());  // remove+xml
  EXPECT_FALSE(ParseWalPayload("insert db%zz\nk\n<x/>").ok());  // bad escape
}

// --- Log scanning: the torn-vs-corrupt split -------------------------------

TEST(WalParseTest, EmptyLogParsesToNothing) {
  auto parsed = ParseWalLog("", 7);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->records.empty());
  EXPECT_EQ(parsed->next_seq, 7u);
  EXPECT_EQ(parsed->intact_bytes, 0u);
  EXPECT_FALSE(parsed->torn_tail);
}

TEST(WalParseTest, SequentialRecordsRoundTrip) {
  const std::vector<WalRecord> records = {
      Rec(WalOp::kInsert, "dblp", "a1", "<x>1</x>"),
      Rec(WalOp::kReplace, "dblp", "a1", "<x>2</x>"),
      Rec(WalOp::kRemove, "dblp", "a1"),
  };
  const std::string log = BuildLog(records, 5);
  auto parsed = ParseWalLog(log, 5);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->records.size(), 3u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(SameRecord(parsed->records[i], records[i])) << i;
  }
  EXPECT_EQ(parsed->next_seq, 8u);
  EXPECT_EQ(parsed->intact_bytes, log.size());
  EXPECT_FALSE(parsed->torn_tail);
}

TEST(WalParseTest, TornFinalRecordIsDiscardedWithWarning) {
  const std::vector<WalRecord> records = {
      Rec(WalOp::kInsert, "dblp", "a1", "<x>1</x>"),
      Rec(WalOp::kInsert, "dblp", "a2", "<x>2</x>"),
  };
  const std::string log = BuildLog(records, 1);
  // Torn mid-header (no newline yet) and torn mid-payload: both tolerate.
  for (const std::string tail : {std::string("rec 3 57"),
                                 std::string("rec 3 57 deadbeef\npartial")}) {
    auto parsed = ParseWalLog(log + tail, 1);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->records.size(), 2u);
    EXPECT_EQ(parsed->intact_bytes, log.size());
    EXPECT_TRUE(parsed->torn_tail);
    EXPECT_FALSE(parsed->torn_reason.empty());
  }
  // A clean truncation mid-record behaves the same.
  auto truncated = ParseWalLog(std::string_view(log).substr(0, log.size() - 3),
                               1);
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated->records.size(), 1u);
  EXPECT_TRUE(truncated->torn_tail);
}

TEST(WalParseTest, ChecksumMismatchIsCorruption) {
  std::string log = BuildLog({Rec(WalOp::kInsert, "dblp", "a1", "<x>1</x>"),
                              Rec(WalOp::kInsert, "dblp", "a2", "<x>2</x>")},
                             1);
  // Flip one payload byte of the FIRST record: complete record, bad CRC.
  log[log.find('\n') + 1] ^= 0x1;
  auto parsed = ParseWalLog(log, 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsIOError()) << parsed.status();
}

TEST(WalParseTest, SequenceGapsAndWrongStartAreCorruption) {
  const std::string log =
      BuildLog({Rec(WalOp::kInsert, "dblp", "a1", "<x/>")}, 4);
  EXPECT_FALSE(ParseWalLog(log, 3).ok());  // log starts at 4, expected 3
  EXPECT_FALSE(ParseWalLog(log, 5).ok());
  EXPECT_TRUE(ParseWalLog(log, 4).ok());
}

TEST(WalParseTest, DuplicatedTailIsCorruption) {
  const std::string first =
      BuildLog({Rec(WalOp::kInsert, "dblp", "a1", "<x/>")}, 1);
  const std::string second =
      BuildLog({Rec(WalOp::kInsert, "dblp", "a2", "<y/>")}, 2);
  // A re-sent tail (e.g. a buggy retry after a successful append) repeats
  // sequence 2: reject, not silently double-apply.
  auto parsed = ParseWalLog(first + second + second, 1);
  ASSERT_FALSE(parsed.ok());
}

TEST(WalParseTest, GarbageAndMalformedHeadersAreCorruption) {
  const std::string log =
      BuildLog({Rec(WalOp::kInsert, "dblp", "a1", "<x/>")}, 1);
  EXPECT_FALSE(ParseWalLog("not a wal\n" + log, 1).ok());
  EXPECT_FALSE(ParseWalLog("rec one 4 00000000\nabcd\n", 1).ok());
  EXPECT_FALSE(ParseWalLog("rec 1 4 zzzz\nabcd\n", 1).ok());
  EXPECT_FALSE(ParseWalLog("rec 1 4\nabcd\n", 1).ok());
}

TEST(WalParseTest, RandomizedCorruptionNeverYieldsDivergentState) {
  // Property: whatever a single random mutilation (bit flip, truncation,
  // duplicated tail) does to a log, parsing either fails or returns an
  // exact PREFIX of the original records -- never different content, and
  // a short prefix only with the torn flag raised or an error. This is
  // the recovery-side half of the durability argument.
  std::vector<WalRecord> records;
  for (int i = 0; i < 8; ++i) {
    records.push_back(Rec(i % 3 == 2 ? WalOp::kRemove
                          : i % 3 == 1 ? WalOp::kReplace
                                       : WalOp::kInsert,
                          "c" + std::to_string(i % 2), "k" + std::to_string(i),
                          i % 3 == 2 ? "" : "<v>" + std::string(i * 7, 'x') +
                                                "</v>"));
  }
  const std::string base = BuildLog(records, 1);
  Random rng(20260808);
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::string log = base;
    switch (rng.Uniform(3)) {
      case 0:  // single bit flip
        log[rng.Uniform(log.size())] ^=
            static_cast<char>(1u << rng.Uniform(8));
        break;
      case 1:  // truncation
        log.resize(rng.Uniform(log.size()));
        break;
      default:  // duplicated tail of random length
        log += log.substr(log.size() - 1 - rng.Uniform(log.size() - 1));
        break;
    }
    auto parsed = ParseWalLog(log, 1);
    if (!parsed.ok()) continue;  // loud rejection is always acceptable
    ASSERT_LE(parsed->records.size(), records.size());
    for (size_t i = 0; i < parsed->records.size(); ++i) {
      EXPECT_TRUE(SameRecord(parsed->records[i], records[i]))
          << "record " << i << " diverged after corruption";
    }
    if (parsed->records.size() < records.size() && !parsed->torn_tail) {
      // Dropping records without the torn flag is legitimate only when
      // the log simply ENDS at a record boundary (a truncation there is
      // indistinguishable from a shorter log).
      EXPECT_EQ(parsed->intact_bytes, log.size())
          << "silently dropped records without raising the torn flag";
    }
    EXPECT_EQ(parsed->next_seq, 1u + parsed->records.size());
  }
}

// --- Group-commit writer ---------------------------------------------------

class WalWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "toss_wal_writer").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = dir_ + "/wal-1.log";
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  std::string path_;
};

TEST_F(WalWriterTest, AppendsFrameRecordsSequentially) {
  WalWriter writer(Env::Default(), path_, 10);
  for (int i = 0; i < 5; ++i) {
    Status st = writer.Append(
        FormatWalPayload(Rec(WalOp::kInsert, "c", "k" + std::to_string(i),
                             "<x/>")),
        nullptr);
    ASSERT_TRUE(st.ok()) << st;
  }
  EXPECT_EQ(writer.next_seq(), 15u);
  EXPECT_FALSE(writer.poisoned());

  auto text = Env::Default()->ReadFile(path_);
  ASSERT_TRUE(text.ok());
  auto parsed = ParseWalLog(*text, 10);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->records.size(), 5u);
  EXPECT_FALSE(parsed->torn_tail);

  WalWriter::Stats stats = writer.GetStats();
  EXPECT_EQ(stats.appends, 5u);
  EXPECT_EQ(stats.records, 5u);
  EXPECT_GE(stats.batches, 1u);
}

TEST_F(WalWriterTest, ConcurrentAppendsCommitInSequenceOrder) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  WalWriter writer(Env::Default(), path_, 1);

  std::mutex order_mu;
  std::vector<std::string> apply_order;
  std::vector<std::thread> threads;
  std::vector<Status> results(kThreads, Status::OK());
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        Status st = writer.Append(
            FormatWalPayload(Rec(WalOp::kInsert, "c", key, "<x/>")), [&, key] {
              std::lock_guard<std::mutex> lock(order_mu);
              apply_order.push_back(key);
              return Status::OK();
            });
        if (!st.ok()) results[t] = st;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& st : results) EXPECT_TRUE(st.ok()) << st;

  // Every record durable, exactly once, and the applies ran in log order.
  auto text = Env::Default()->ReadFile(path_);
  ASSERT_TRUE(text.ok());
  auto parsed = ParseWalLog(*text, 1);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->records.size(),
            static_cast<size_t>(kThreads * kPerThread));
  ASSERT_EQ(apply_order.size(), parsed->records.size());
  for (size_t i = 0; i < parsed->records.size(); ++i) {
    EXPECT_EQ(parsed->records[i].key, apply_order[i]) << i;
  }

  WalWriter::Stats stats = writer.GetStats();
  EXPECT_EQ(stats.records, static_cast<uint64_t>(kThreads * kPerThread));
  // Group commit really grouped (or degenerated to one-per-batch under an
  // unlucky schedule -- but never more batches than records).
  EXPECT_LE(stats.batches, stats.records);
  EXPECT_GE(stats.max_batch, 1u);
}

TEST_F(WalWriterTest, TransientAppendFaultsAreRetriedWithBackoff) {
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 0;
  opts.kind = FaultInjectionEnv::FaultKind::kTransient;
  opts.transient_failures = 2;
  FaultInjectionEnv fenv(Env::Default(), opts);
  WalWriter writer(&fenv, path_, 1);
  Status st = writer.Append(
      FormatWalPayload(Rec(WalOp::kInsert, "c", "k", "<x/>")), nullptr);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(fenv.faults_fired(), 2u);
  EXPECT_EQ(fenv.sleep_count(), 2u);
  EXPECT_FALSE(writer.poisoned());

  auto text = Env::Default()->ReadFile(path_);
  ASSERT_TRUE(text.ok());
  auto parsed = ParseWalLog(*text, 1);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->records.size(), 1u);  // retries never duplicated bytes
}

TEST_F(WalWriterTest, HardErrorPoisonsWriterUntilRotate) {
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 0;
  opts.kind = FaultInjectionEnv::FaultKind::kHardError;
  FaultInjectionEnv fenv(Env::Default(), opts);
  WalWriter writer(&fenv, path_, 1);

  Status st = writer.Append(
      FormatWalPayload(Rec(WalOp::kInsert, "c", "k", "<x/>")), nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(writer.poisoned());

  // Poisoned: refused before touching the env at all.
  const size_t ops_before = fenv.op_count();
  Status refused = writer.Append(
      FormatWalPayload(Rec(WalOp::kInsert, "c", "k2", "<x/>")), nullptr);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(fenv.op_count(), ops_before);

  // Rotation (driven by a checkpoint in real life) clears the poison.
  ASSERT_TRUE(writer.Rotate(dir_ + "/wal-2.log").ok());
  EXPECT_FALSE(writer.poisoned());
}

// --- Durable database ------------------------------------------------------

std::string Fingerprint(const Database& db) {
  std::string out;
  for (const std::string& name : db.CollectionNames()) {
    auto coll = db.GetCollection(name);
    EXPECT_TRUE(coll.ok());
    out += "collection " + EscapeKey(name) + "\n";
    for (DocId id : (*coll)->AllDocs()) {
      out += "  key " + EscapeKey((*coll)->key(id)) + "\n";
      out += "  doc " + xml::Write((*coll)->document(id)) + "\n";
    }
  }
  return out;
}

class DurableDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "toss_wal_durable").string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string WalPathOnDisk() {
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (ParseWalFileName(entry.path().filename().string())) {
        return entry.path().string();
      }
    }
    return "";
  }

  std::string dir_;
};

TEST_F(DurableDbTest, MutationsSurviveReopenWithoutCheckpoint) {
  {
    auto db = Database::OpenDurable(dir_, Env::Default());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->durable());
    ASSERT_TRUE(db->DurableInsert("dblp", "a1", "<x>old</x>").ok());
    ASSERT_TRUE(db->DurableInsert("dblp", "a2", "<y/>").ok());
    ASSERT_TRUE(db->DurableReplace("dblp", "a1", "<x>new</x>").ok());
    ASSERT_TRUE(db->DurableRemove("dblp", "a2").ok());
    ASSERT_TRUE(db->DurableInsert("conf", "c1", "<conf/>").ok());
    // No Save, no Checkpoint: durability must come from the log alone.
  }
  RecoveryReport report;
  auto back = Database::Open(dir_, Env::Default(), &report);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(report.wal.has_value());
  EXPECT_EQ(report.wal->records_replayed, 5u);
  EXPECT_FALSE(report.wal->torn_tail);
  EXPECT_FALSE(report.degraded());

  auto dblp = back->GetCollection("dblp");
  ASSERT_TRUE(dblp.ok());
  EXPECT_EQ((*dblp)->AllDocs().size(), 1u);  // a1 replaced, a2 removed
  auto id = (*dblp)->FindKey("a1");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(xml::Write((*dblp)->document(*id)), "<x>new</x>");
  EXPECT_FALSE((*dblp)->FindKey("a2").ok());
  EXPECT_TRUE(back->GetCollection("conf").ok());
}

TEST_F(DurableDbTest, CheckpointTruncatesLogAndIngestResumes) {
  {
    auto db = Database::OpenDurable(dir_, Env::Default());
    ASSERT_TRUE(db.ok()) << db.status();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->DurableInsert("c", "k" + std::to_string(i), "<v/>").ok());
    }
    const uint64_t seq_before = db->WalNextSeq();
    ASSERT_TRUE(db->Checkpoint().ok());
    // The sequence counter survives the rotation; the old segment is gone.
    EXPECT_EQ(db->WalNextSeq(), seq_before);
    ASSERT_TRUE(db->DurableInsert("c", "post-ckpt", "<v/>").ok());
  }
  RecoveryReport report;
  auto back = Database::Open(dir_, Env::Default(), &report);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(report.wal.has_value());
  // Only the post-checkpoint mutation replays; the rest live in the
  // snapshot.
  EXPECT_EQ(report.wal->records_replayed, 1u);
  auto coll = back->GetCollection("c");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->size(), 11u);

  // At most one wal segment exists after a checkpoint.
  size_t wal_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (ParseWalFileName(entry.path().filename().string())) ++wal_files;
  }
  EXPECT_LE(wal_files, 1u);
}

TEST_F(DurableDbTest, ValidationFailuresReachNeitherLogNorMemory) {
  auto db = Database::OpenDurable(dir_, Env::Default());
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE(db->DurableInsert("c", "k", "<v/>").ok());
  const uint64_t seq = db->WalNextSeq();

  EXPECT_TRUE(db->DurableInsert("c", "k", "<w/>").IsAlreadyExists());
  EXPECT_TRUE(db->DurableReplace("c", "missing", "<w/>").IsNotFound());
  EXPECT_TRUE(db->DurableRemove("c", "missing").IsNotFound());
  EXPECT_TRUE(db->DurableInsert("c", "k2", "<unclosed").IsParseError());
  EXPECT_TRUE(db->DurableInsert("", "k", "<v/>").IsInvalidArgument());

  // None of the rejects consumed a sequence number or landed on disk.
  EXPECT_EQ(db->WalNextSeq(), seq);
  RecoveryReport report;
  auto back = Database::Open(dir_, Env::Default(), &report);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(report.wal->records_replayed, 1u);
  EXPECT_EQ(Fingerprint(*back), Fingerprint(*db));
}

TEST_F(DurableDbTest, PlainSaveIsRefusedWhileDurable) {
  auto db = Database::OpenDurable(dir_, Env::Default());
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE(db->Save(dir_).IsInvalidArgument());
  // And durable mutations on a non-durable database are refused too.
  Database plain;
  EXPECT_TRUE(plain.DurableInsert("c", "k", "<v/>").IsInvalidArgument());
  EXPECT_TRUE(plain.Checkpoint().IsInvalidArgument());
}

TEST_F(DurableDbTest, PlainSaveGenerationIsAdoptedByCheckpoint) {
  // A database committed by the snapshot-only path (no wal line) opens
  // durable: OpenDurable checkpoints once to establish the log.
  Database seed;
  auto coll = seed.CreateCollection("dblp");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->InsertXml("a1", "<x/>").ok());
  ASSERT_TRUE(seed.Save(dir_).ok());

  {
    auto db = Database::OpenDurable(dir_, Env::Default());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->DurableInsert("dblp", "a2", "<y/>").ok());
  }
  auto back = Database::Open(dir_);
  ASSERT_TRUE(back.ok()) << back.status();
  auto dblp = back->GetCollection("dblp");
  ASSERT_TRUE(dblp.ok());
  EXPECT_EQ((*dblp)->size(), 2u);
}

TEST_F(DurableDbTest, TornTailIsTruncatedOnDurableReopen) {
  {
    auto db = Database::OpenDurable(dir_, Env::Default());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->DurableInsert("c", "k1", "<v/>").ok());
    ASSERT_TRUE(db->DurableInsert("c", "k2", "<v/>").ok());
  }
  // Simulate a torn final append: header landed, payload did not.
  const std::string wal_path = WalPathOnDisk();
  ASSERT_FALSE(wal_path.empty());
  auto text = Env::Default()->ReadFile(wal_path);
  ASSERT_TRUE(text.ok());
  const size_t intact = text->size();
  ASSERT_TRUE(
      Env::Default()->AppendFile(wal_path, "rec 99 400 deadbeef\nxx").ok());

  // Read-only Open tolerates and reports the tear...
  RecoveryReport report;
  auto ro = Database::Open(dir_, Env::Default(), &report);
  ASSERT_TRUE(ro.ok()) << ro.status();
  ASSERT_TRUE(report.wal.has_value());
  EXPECT_TRUE(report.wal->torn_tail);
  EXPECT_EQ(report.wal->records_replayed, 2u);
  EXPECT_EQ(report.wal->intact_bytes, intact);

  // ...and the durable reopen truncates it away and keeps ingesting.
  {
    RecoveryReport dreport;
    auto db = Database::OpenDurable(dir_, Env::Default(),
                                    Database::DurableOptions{}, &dreport);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_TRUE(dreport.wal->torn_tail);
    ASSERT_TRUE(db->DurableInsert("c", "k3", "<v/>").ok());
  }
  RecoveryReport clean;
  auto back = Database::Open(dir_, Env::Default(), &clean);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_FALSE(clean.wal->torn_tail);
  EXPECT_EQ(clean.wal->records_replayed, 3u);
}

TEST_F(DurableDbTest, MidLogCorruptionFailsOpenLoudly) {
  {
    auto db = Database::OpenDurable(dir_, Env::Default());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->DurableInsert("c", "k1", "<v>aaaa</v>").ok());
    ASSERT_TRUE(db->DurableInsert("c", "k2", "<v>bbbb</v>").ok());
  }
  const std::string wal_path = WalPathOnDisk();
  ASSERT_FALSE(wal_path.empty());
  auto text = Env::Default()->ReadFile(wal_path);
  ASSERT_TRUE(text.ok());
  std::string corrupted = *text;
  corrupted[corrupted.find('\n') + 1] ^= 0x1;  // first record's payload
  ASSERT_TRUE(Env::Default()->WriteFile(wal_path, corrupted).ok());

  // An acknowledged record no longer checks out: refuse to open rather
  // than silently resurrect the pre-mutation state.
  auto opened = Database::Open(dir_);
  ASSERT_FALSE(opened.ok());
  auto durable = Database::OpenDurable(dir_, Env::Default());
  ASSERT_FALSE(durable.ok());
}

TEST_F(DurableDbTest, CreateIfMissingGovernsBootstrap) {
  Database::DurableOptions no_create;
  no_create.create_if_missing = false;
  EXPECT_FALSE(Database::OpenDurable(dir_, Env::Default(), no_create).ok());

  // Bootstrap never clobbers a directory that HAS snapshot-shaped content
  // which merely failed to load.
  fs::create_directories(dir_);
  ASSERT_TRUE(
      Env::Default()
          ->WriteFile(dir_ + "/" + kCurrentFileName, "gen-1\n")
          .ok());
  EXPECT_FALSE(Database::OpenDurable(dir_, Env::Default()).ok());
}

TEST_F(DurableDbTest, ConcurrentDistinctInsertsAllCommitOnce) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    auto db = Database::OpenDurable(dir_, Env::Default());
    ASSERT_TRUE(db.ok()) << db.status();
    std::vector<std::thread> threads;
    std::vector<Status> results(kThreads, Status::OK());
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          Status st = db->DurableInsert(
              "c", "t" + std::to_string(t) + "-" + std::to_string(i), "<v/>");
          if (!st.ok()) results[t] = st;
        }
      });
    }
    for (auto& th : threads) th.join();
    for (const Status& st : results) ASSERT_TRUE(st.ok()) << st;
  }
  RecoveryReport report;
  auto back = Database::Open(dir_, Env::Default(), &report);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(report.wal->records_replayed,
            static_cast<uint64_t>(kThreads * kPerThread));
  auto coll = back->GetCollection("c");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(DurableDbTest, RacingSameKeyInsertsCommitExactlyOne) {
  // Two threads race to insert the SAME key: exactly one may win, and --
  // critically -- the loser must lose BEFORE its record reaches the log,
  // or replay would reject the log as corrupt. 20 rounds of the race.
  auto db = Database::OpenDurable(dir_, Env::Default());
  ASSERT_TRUE(db.ok()) << db.status();
  for (int round = 0; round < 20; ++round) {
    const std::string key = "contended-" + std::to_string(round);
    Status s1, s2;
    std::thread t1([&] { s1 = db->DurableInsert("c", key, "<one/>"); });
    std::thread t2([&] { s2 = db->DurableInsert("c", key, "<two/>"); });
    t1.join();
    t2.join();
    EXPECT_NE(s1.ok(), s2.ok()) << "round " << round << ": " << s1 << " / "
                                << s2;
    EXPECT_TRUE(s1.IsAlreadyExists() || s2.IsAlreadyExists());
  }
  // The log both replays cleanly and reproduces the in-memory state.
  RecoveryReport report;
  auto back = Database::Open(dir_, Env::Default(), &report);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(report.wal->records_replayed, 20u);
  EXPECT_EQ(Fingerprint(*back), Fingerprint(*db));
}

// --- Service mutation path -------------------------------------------------

TEST_F(DurableDbTest, ServiceRunRoutesMutationsToTheDurablePath) {
  auto db = Database::OpenDurable(dir_, Env::Default());
  ASSERT_TRUE(db.ok()) << db.status();
  service::TossService svc(&*db, nullptr, nullptr);

  EXPECT_TRUE(svc.Run(service::QueryRequest::Insert("dblp", "a1",
                                                    "<x>old</x>"))
                  .ok());
  EXPECT_TRUE(svc.Run(service::QueryRequest::Insert("dblp", "a2", "<y/>"))
                  .ok());
  EXPECT_TRUE(svc.Run(service::QueryRequest::Replace("dblp", "a1",
                                                     "<x>new</x>"))
                  .ok());
  EXPECT_TRUE(svc.Run(service::QueryRequest::Remove("dblp", "a2")).ok());

  // Validation errors surface through the response status.
  EXPECT_TRUE(svc.Run(service::QueryRequest::Remove("dblp", "a2"))
                  .status.IsNotFound());
  EXPECT_TRUE(svc.Run(service::QueryRequest::Insert("dblp", "a1", "<dup/>"))
                  .status.IsAlreadyExists());

  // Acked through the service == durable: a fresh process sees it all.
  auto back = Database::Open(dir_);
  ASSERT_TRUE(back.ok()) << back.status();
  auto dblp = back->GetCollection("dblp");
  ASSERT_TRUE(dblp.ok());
  EXPECT_EQ((*dblp)->AllDocs().size(), 1u);  // a1 replaced, a2 removed
  auto id = (*dblp)->FindKey("a1");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(xml::Write((*dblp)->document(*id)), "<x>new</x>");
}

TEST_F(DurableDbTest, ReadOnlyServiceRefusesMutations) {
  auto db = Database::OpenDurable(dir_, Env::Default());
  ASSERT_TRUE(db.ok()) << db.status();
  const Database* ro = &*db;
  service::TossService svc(ro, nullptr, nullptr);
  auto resp = svc.Run(service::QueryRequest::Insert("c", "k", "<v/>"));
  EXPECT_TRUE(resp.status.IsInvalidArgument()) << resp.status;
}

TEST_F(DurableDbTest, ServiceMutationHonorsCancellationBeforeTheLog) {
  auto db = Database::OpenDurable(dir_, Env::Default());
  ASSERT_TRUE(db.ok()) << db.status();
  service::TossService svc(&*db, nullptr, nullptr);
  CancelToken cancelled;
  cancelled.Cancel();
  service::QueryRequest req = service::QueryRequest::Insert("c", "k", "<v/>");
  req.cancel = &cancelled;
  auto resp = svc.Run(req);
  EXPECT_TRUE(resp.status.IsCancelled()) << resp.status;
  // Cancelled before logging: nothing became durable.
  auto back = Database::Open(dir_);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->GetCollection("c").ok());
}

}  // namespace
}  // namespace toss::store
