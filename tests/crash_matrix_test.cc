// Crash-recovery matrix for the generational snapshot store.
//
// The durability contract under test: for EVERY mutating I/O operation k
// performed by Database::Save, a crash (hard error or torn write) injected
// at op k leaves the directory in a state from which Open recovers exactly
// the pre-save or the post-save database -- deep-equal, never a torn
// hybrid -- and recovery is idempotent.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "store/database.h"
#include "store/env.h"
#include "store/snapshot.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace toss::store {
namespace {

namespace fs = std::filesystem;

// A canonical fingerprint of a database: collection names, keys in
// insertion order, and each document's serialized bytes. Two databases
// with equal fingerprints answer every query identically.
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

Database MakeStateA() {
  Database db;
  auto dblp = db.CreateCollection("dblp");
  EXPECT_TRUE(dblp.ok());
  EXPECT_TRUE(
      (*dblp)->InsertXml("a1", "<inproceedings><author>Ullman</author>"
                               "<year>1998</year></inproceedings>")
          .ok());
  EXPECT_TRUE((*dblp)->InsertXml("a2", "<article><title>TAX</title></article>")
                  .ok());
  auto conf = db.CreateCollection("conf");
  EXPECT_TRUE(conf.ok());
  EXPECT_TRUE((*conf)->InsertXml("c1", "<conference>SIGMOD</conference>").ok());
  return db;
}

Database MakeStateB() {
  // B differs from A in every way a save can: a replaced document, a
  // removed document, a new document, and a whole new collection.
  Database db = MakeStateA();
  auto dblp = db.GetCollection("dblp");
  EXPECT_TRUE(dblp.ok());
  EXPECT_TRUE((*dblp)->Remove("a2").ok());
  EXPECT_TRUE(
      (*dblp)->InsertXml("a3", "<article><title>TOSS</title></article>").ok());
  auto extra = db.CreateCollection("extra");
  EXPECT_TRUE(extra.ok());
  EXPECT_TRUE((*extra)->InsertXml("weird / key\nwith newline", "<x/>").ok());
  return db;
}

class CrashMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "toss_crash_matrix").string();
    fs::remove_all(dir_);
    a_ = MakeStateA();
    b_ = MakeStateB();
    fp_a_ = Fingerprint(a_);
    fp_b_ = Fingerprint(b_);
    ASSERT_NE(fp_a_, fp_b_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Fresh directory holding committed state A.
  void ResetDirToA() {
    fs::remove_all(dir_);
    ASSERT_TRUE(a_.Save(dir_).ok());
  }

  /// Mutating-op count of a clean Save of B over a committed A.
  size_t CountSaveOps() {
    ResetDirToA();
    FaultInjectionEnv counter(Env::Default());
    EXPECT_TRUE(b_.Save(dir_, &counter).ok());
    return counter.op_count();
  }

  std::string dir_;
  Database a_, b_;
  std::string fp_a_, fp_b_;
};

TEST_F(CrashMatrixTest, EveryFaultPointRecoversToOldOrNewState) {
  const size_t total_ops = CountSaveOps();
  ASSERT_GT(total_ops, 10u);  // the protocol really is multi-step

  const FaultInjectionEnv::FaultKind kinds[] = {
      FaultInjectionEnv::FaultKind::kHardError,
      FaultInjectionEnv::FaultKind::kTornWrite,
      FaultInjectionEnv::FaultKind::kNoSpace,
  };
  for (FaultInjectionEnv::FaultKind kind : kinds) {
    for (size_t k = 0; k < total_ops; ++k) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " fault at op " + std::to_string(k));
      ResetDirToA();
      FaultInjectionEnv::Options opts;
      opts.fail_at_op = k;
      opts.kind = kind;
      FaultInjectionEnv fenv(Env::Default(), opts);
      Status st = b_.Save(dir_, &fenv);
      // The save either failed (fault before/at commit) or succeeded
      // (fault landed in post-commit cleanup, which is best-effort).
      ASSERT_GE(fenv.faults_fired(), 1u);

      // Reopen with a clean env, as a restarted process would.
      RecoveryReport report;
      auto recovered = Database::Open(dir_, Env::Default(), &report);
      ASSERT_TRUE(recovered.ok()) << recovered.status();
      std::string fp = Fingerprint(*recovered);
      EXPECT_TRUE(fp == fp_a_ || fp == fp_b_)
          << "torn hybrid state recovered:\n" << fp;
      // A successful Save must never roll back to the old state.
      if (st.ok()) {
        EXPECT_EQ(fp, fp_b_);
      }

      // Recovery is idempotent: a second Open sees the same state and the
      // same degradation report.
      RecoveryReport report2;
      auto again = Database::Open(dir_, Env::Default(), &report2);
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_EQ(Fingerprint(*again), fp);
      EXPECT_EQ(report2.loaded_generation, report.loaded_generation);
      EXPECT_EQ(report2.discarded.size(), report.discarded.size());

      // And the store remains writable: a follow-up clean Save commits B
      // and collects any debris the crash left behind.
      ASSERT_TRUE(b_.Save(dir_).ok());
      auto final_db = Database::Open(dir_);
      ASSERT_TRUE(final_db.ok()) << final_db.status();
      EXPECT_EQ(Fingerprint(*final_db), fp_b_);
      bool stale_tmp = false;
      for (const auto& entry : fs::directory_iterator(dir_)) {
        if (ParseTempGenerationDirName(entry.path().filename().string())) {
          stale_tmp = true;
        }
      }
      EXPECT_FALSE(stale_tmp) << "Save left a stale gen-*.tmp behind";
    }
  }
}

TEST_F(CrashMatrixTest, TransientFaultsAreRetriedToSuccess) {
  const size_t total_ops = CountSaveOps();
  // A short transient outage at every op index is absorbed by the bounded
  // retry loop: the save succeeds and the backoff path really ran.
  for (size_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("transient fault at op " + std::to_string(k));
    ResetDirToA();
    FaultInjectionEnv::Options opts;
    opts.fail_at_op = k;
    opts.kind = FaultInjectionEnv::FaultKind::kTransient;
    opts.transient_failures = 2;  // below RetryPolicy::max_attempts
    FaultInjectionEnv fenv(Env::Default(), opts);
    ASSERT_TRUE(b_.Save(dir_, &fenv).ok());
    EXPECT_EQ(fenv.faults_fired(), 2u);
    EXPECT_EQ(fenv.sleep_count(), 2u);  // one backoff per transient failure
    auto recovered = Database::Open(dir_);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(Fingerprint(*recovered), fp_b_);
  }
}

TEST_F(CrashMatrixTest, PersistentTransientFaultFailsBoundedAndAtomic) {
  ResetDirToA();
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 5;
  opts.kind = FaultInjectionEnv::FaultKind::kTransient;
  opts.transient_failures = 1'000'000;  // outage outlasts the retry budget
  FaultInjectionEnv fenv(Env::Default(), opts);
  RetryPolicy policy;
  policy.max_attempts = 3;
  Status st = b_.Save(dir_, &fenv, policy);
  ASSERT_TRUE(st.IsUnavailable()) << st;
  // Bounded: the failing op was tried exactly max_attempts times.
  EXPECT_EQ(fenv.faults_fired(), policy.max_attempts);
  EXPECT_EQ(fenv.sleep_count(), policy.max_attempts - 1);
  // Atomic: the old state is fully intact.
  auto recovered = Database::Open(dir_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Fingerprint(*recovered), fp_a_);
}

TEST_F(CrashMatrixTest, RepeatedCrashesAcrossSavesStillConverge) {
  // Crash several consecutive saves at different points, then recover:
  // debris from multiple generations must not confuse Open or Save.
  ResetDirToA();
  for (size_t k : {3u, 9u, 15u}) {
    FaultInjectionEnv::Options opts;
    opts.fail_at_op = k;
    opts.kind = FaultInjectionEnv::FaultKind::kTornWrite;
    FaultInjectionEnv fenv(Env::Default(), opts);
    (void)b_.Save(dir_, &fenv);  // most of these crash mid-save
    auto recovered = Database::Open(dir_);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    std::string fp = Fingerprint(*recovered);
    EXPECT_TRUE(fp == fp_a_ || fp == fp_b_);
  }
  ASSERT_TRUE(b_.Save(dir_).ok());
  auto final_db = Database::Open(dir_);
  ASSERT_TRUE(final_db.ok());
  EXPECT_EQ(Fingerprint(*final_db), fp_b_);
}

TEST_F(CrashMatrixTest, HostileKeysSurviveTheFullMatrixProtocol) {
  // Keys exercising every escape path, saved and recovered byte-exact.
  Database db;
  auto coll = db.CreateCollection("k");
  ASSERT_TRUE(coll.ok());
  const std::string keys[] = {
      "line\nbreak", "cr\rlf\n", "pct % pct %25", "path/sep\\both",
      "spaces  and\ttabs", std::string("nul\0inside", 10),
  };
  for (const std::string& key : keys) {
    ASSERT_TRUE((*coll)->InsertXml(key, "<v/>").ok());
  }
  ASSERT_TRUE(db.Save(dir_).ok());
  auto back = Database::Open(dir_);
  ASSERT_TRUE(back.ok()) << back.status();
  auto bcoll = back->GetCollection("k");
  ASSERT_TRUE(bcoll.ok());
  EXPECT_EQ((*bcoll)->size(), 6u);
  for (const std::string& key : keys) {
    EXPECT_TRUE((*bcoll)->FindKey(key).ok()) << EscapeKey(key);
  }
  EXPECT_EQ(Fingerprint(*back), Fingerprint(db));
}

// --- WAL fault matrix ------------------------------------------------------
//
// The ingest-side durability contract: for EVERY mutating I/O operation k
// of a durable session (reopen + a run of DurableInsert/Replace/Remove), a
// crash injected at op k leaves the directory in a state from which Open
// recovers exactly the state after some PREFIX of the mutations -- never a
// torn hybrid -- and every mutation that was ACKED (its Durable* call
// returned OK, meaning its fsync was acknowledged) is in that prefix.

class WalCrashMatrixTest : public CrashMatrixTest {
 protected:
  /// Seeds dir_ with a checkpointed durable database holding one document
  /// ("base"), so a session starts from a committed snapshot + empty log.
  void SeedDurableBase() {
    fs::remove_all(dir_);
    auto db = Database::OpenDurable(dir_, Env::Default());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(db->DurableInsert("dblp", "base", "<base/>").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
  }

  /// The session's mutation run, applied one-by-one while the previous
  /// mutation acked. Returns how many consecutive mutations acked.
  static size_t RunMutations(Database* db) {
    size_t acked = 0;
    if (db->DurableInsert("dblp", "m1", "<m1/>").ok()) acked = 1;
    if (acked == 1 && db->DurableReplace("dblp", "base", "<base2/>").ok()) {
      acked = 2;
    }
    if (acked == 2 && db->DurableRemove("dblp", "m1").ok()) acked = 3;
    return acked;
  }

  /// Fingerprints of the states after 0, 1, 2, and 3 of the mutations,
  /// built by replaying the same operation sequence on plain collections
  /// (so document insertion order matches a WAL replay's).
  std::vector<std::string> PrefixFingerprints() {
    std::vector<std::string> fps;
    Database db;
    auto coll = db.CreateCollection("dblp");
    EXPECT_TRUE(coll.ok());
    EXPECT_TRUE((*coll)->InsertXml("base", "<base/>").ok());
    fps.push_back(Fingerprint(db));
    EXPECT_TRUE((*coll)->InsertXml("m1", "<m1/>").ok());
    fps.push_back(Fingerprint(db));
    auto parsed = xml::Parse("<base2/>");
    EXPECT_TRUE(parsed.ok());
    EXPECT_TRUE((*coll)->Replace("base", *std::move(parsed)).ok());
    fps.push_back(Fingerprint(db));
    EXPECT_TRUE((*coll)->Remove("m1").ok());
    fps.push_back(Fingerprint(db));
    return fps;
  }

  /// Mutating-op count of a fault-free session over a fresh seed.
  size_t CountSessionOps() {
    SeedDurableBase();
    FaultInjectionEnv counter(Env::Default());
    auto db = Database::OpenDurable(dir_, &counter);
    EXPECT_TRUE(db.ok()) << db.status();
    EXPECT_EQ(RunMutations(&*db), 3u);
    return counter.op_count();
  }
};

TEST_F(WalCrashMatrixTest, EveryFaultPointLeavesAnAckedConsistentPrefix) {
  const std::vector<std::string> prefix_fps = PrefixFingerprints();
  const size_t total_ops = CountSessionOps();
  ASSERT_GE(total_ops, 6u);  // >= one append + one fsync per mutation

  const FaultInjectionEnv::FaultKind kinds[] = {
      FaultInjectionEnv::FaultKind::kHardError,
      FaultInjectionEnv::FaultKind::kTornWrite,
      FaultInjectionEnv::FaultKind::kNoSpace,
  };
  for (FaultInjectionEnv::FaultKind kind : kinds) {
    for (size_t k = 0; k < total_ops; ++k) {
      SCOPED_TRACE("kind=" + std::to_string(static_cast<int>(kind)) +
                   " fault at op " + std::to_string(k));
      SeedDurableBase();
      FaultInjectionEnv::Options opts;
      opts.fail_at_op = k;
      opts.kind = kind;
      FaultInjectionEnv fenv(Env::Default(), opts);
      size_t acked = 0;
      {
        auto db = Database::OpenDurable(dir_, &fenv);
        ASSERT_TRUE(db.ok()) << db.status();  // open over a clean seed reads
        acked = RunMutations(&*db);
      }
      ASSERT_GE(fenv.faults_fired(), 1u);
      ASSERT_LT(acked, 3u);  // the fault landed inside some mutation

      // A restarted process recovers a prefix state containing every
      // acked mutation. (It may contain MORE: a record whose bytes landed
      // but whose fsync failed replays fine -- unacked-but-present is
      // allowed, acked-but-absent never.)
      RecoveryReport report;
      auto recovered = Database::Open(dir_, Env::Default(), &report);
      ASSERT_TRUE(recovered.ok()) << recovered.status();
      const std::string fp = Fingerprint(*recovered);
      const auto it = std::find(prefix_fps.begin(), prefix_fps.end(), fp);
      ASSERT_NE(it, prefix_fps.end())
          << "torn hybrid state recovered:\n" << fp;
      const size_t prefix_len =
          static_cast<size_t>(it - prefix_fps.begin());
      EXPECT_GE(prefix_len, acked)
          << "an acked mutation vanished after the crash";

      // Recovery is idempotent.
      auto again = Database::Open(dir_, Env::Default());
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_EQ(Fingerprint(*again), fp);

      // And a clean durable reopen heals (truncating any torn tail) and
      // completes the run: the remaining mutations land.
      {
        auto healed = Database::OpenDurable(dir_, Env::Default());
        ASSERT_TRUE(healed.ok()) << healed.status();
        if (prefix_len < 1) {
          ASSERT_TRUE(healed->DurableInsert("dblp", "m1", "<m1/>").ok());
        }
        if (prefix_len < 2) {
          ASSERT_TRUE(
              healed->DurableReplace("dblp", "base", "<base2/>").ok());
        }
        if (prefix_len < 3) {
          ASSERT_TRUE(healed->DurableRemove("dblp", "m1").ok());
        }
      }
      auto final_db = Database::Open(dir_);
      ASSERT_TRUE(final_db.ok()) << final_db.status();
      EXPECT_EQ(Fingerprint(*final_db), prefix_fps.back());
    }
  }
}

TEST_F(WalCrashMatrixTest, TransientFaultsAreAbsorbedByGroupCommitRetry) {
  const size_t total_ops = CountSessionOps();
  for (size_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("transient fault at op " + std::to_string(k));
    SeedDurableBase();
    FaultInjectionEnv::Options opts;
    opts.fail_at_op = k;
    opts.kind = FaultInjectionEnv::FaultKind::kTransient;
    opts.transient_failures = 2;  // below RetryPolicy::max_attempts
    FaultInjectionEnv fenv(Env::Default(), opts);
    {
      auto db = Database::OpenDurable(dir_, &fenv);
      ASSERT_TRUE(db.ok()) << db.status();
      EXPECT_EQ(RunMutations(&*db), 3u);  // the outage is invisible
    }
    EXPECT_EQ(fenv.faults_fired(), 2u);
    EXPECT_EQ(fenv.sleep_count(), 2u);  // one backoff per transient failure
    RecoveryReport report;
    auto recovered = Database::Open(dir_, Env::Default(), &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_FALSE(report.wal->torn_tail);  // retries never tore the log
    EXPECT_EQ(Fingerprint(*recovered), PrefixFingerprints().back());
  }
}

TEST_F(CrashMatrixTest, SaveAndOpenRecordTraceSpans) {
  fs::remove_all(dir_);
  obs::Trace save_trace("save");
  {
    obs::Span root = save_trace.RootSpan();
    ASSERT_TRUE(a_.Save(dir_, Env::Default(), RetryPolicy{}, &root).ok());
  }
  std::vector<std::string> phases;
  for (const auto& c : save_trace.root().children) phases.push_back(c->name);
  EXPECT_EQ(phases, (std::vector<std::string>{"prepare", "write_docs",
                                              "commit", "cleanup"}));

  obs::Trace open_trace("open");
  {
    obs::Span root = open_trace.RootSpan();
    RecoveryReport report;
    auto db = Database::Open(dir_, Env::Default(), &report, &root);
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_FALSE(report.degraded());
  }
  phases.clear();
  bool saw_generation = false;
  for (const auto& c : open_trace.root().children) phases.push_back(c->name);
  EXPECT_EQ(phases, (std::vector<std::string>{"scan", "load"}));
  for (const auto& [k, v] : open_trace.root().annotations) {
    if (k == "loaded_generation" && !v.empty()) saw_generation = true;
  }
  EXPECT_TRUE(saw_generation);
}

}  // namespace
}  // namespace toss::store
