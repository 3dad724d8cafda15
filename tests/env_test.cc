// Unit tests for the store's Env I/O layer: ProductionEnv filesystem
// semantics, FaultInjectionEnv fault modes, and the RetryTransient
// backoff loop.

#include <gtest/gtest.h>

#include <filesystem>

#include "store/env.h"
#include "store/snapshot.h"

namespace toss::store {
namespace {

namespace fs = std::filesystem;

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "toss_env_test").string();
    fs::remove_all(dir_);
    env_ = Env::Default();
    ASSERT_TRUE(env_->CreateDirs(dir_).ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
  Env* env_ = nullptr;
};

TEST_F(EnvTest, WriteReadRoundTrip) {
  std::string payload("hello\0world\n binary \xff ok", 23);
  ASSERT_TRUE(env_->WriteFile(Path("f"), payload).ok());
  ASSERT_TRUE(env_->SyncFile(Path("f")).ok());
  auto back = env_->ReadFile(Path("f"));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, payload);
}

TEST_F(EnvTest, ReadMissingFileIsIOError) {
  EXPECT_TRUE(env_->ReadFile(Path("nope")).status().IsIOError());
  EXPECT_FALSE(env_->FileExists(Path("nope")));
}

TEST_F(EnvTest, RemoveIsIdempotent) {
  EXPECT_TRUE(env_->RemoveFile(Path("nope")).ok());
  EXPECT_TRUE(env_->RemoveAll(Path("nope-dir")).ok());
}

TEST_F(EnvTest, RenameReplacesAndListDirSees) {
  ASSERT_TRUE(env_->WriteFile(Path("a"), "old").ok());
  ASSERT_TRUE(env_->WriteFile(Path("b"), "new").ok());
  ASSERT_TRUE(env_->RenameFile(Path("b"), Path("a")).ok());
  auto back = env_->ReadFile(Path("a"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "new");
  auto listing = env_->ListDir(dir_);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 1u);
  EXPECT_EQ((*listing)[0], "a");
  ASSERT_TRUE(env_->SyncDir(dir_).ok());
}

TEST_F(EnvTest, HardFaultAtOpKThenCrashed) {
  // Op 0 = first WriteFile; op 1 faults, everything after fails too.
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 1;
  FaultInjectionEnv fenv(env_, opts);
  EXPECT_TRUE(fenv.WriteFile(Path("w0"), "x").ok());
  EXPECT_TRUE(fenv.WriteFile(Path("w1"), "y").IsIOError());
  EXPECT_EQ(fenv.faults_fired(), 1u);
  // Crashed: later mutating AND read ops fail.
  EXPECT_TRUE(fenv.WriteFile(Path("w2"), "z").IsIOError());
  EXPECT_TRUE(fenv.ReadFile(Path("w0")).status().IsIOError());
  EXPECT_TRUE(fenv.ListDir(dir_).status().IsIOError());
  // Nothing past the fault landed on disk.
  EXPECT_TRUE(env_->FileExists(Path("w0")));
  EXPECT_FALSE(env_->FileExists(Path("w1")));
  EXPECT_FALSE(env_->FileExists(Path("w2")));
}

TEST_F(EnvTest, TornWriteLeavesPrefix) {
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 0;
  opts.kind = FaultInjectionEnv::FaultKind::kTornWrite;
  FaultInjectionEnv fenv(env_, opts);
  std::string payload(100, 'a');
  EXPECT_TRUE(fenv.WriteFile(Path("torn"), payload).IsIOError());
  auto back = env_->ReadFile(Path("torn"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 50u);  // half the payload landed
}

TEST_F(EnvTest, NoSpacePersistsForWritesOnly) {
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 0;
  opts.kind = FaultInjectionEnv::FaultKind::kNoSpace;
  FaultInjectionEnv fenv(env_, opts);
  Status st = fenv.WriteFile(Path("full"), "data");
  ASSERT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("no space"), std::string::npos) << st;
  // Writes keep failing; non-write ops (the disk is full, not dead) pass.
  EXPECT_TRUE(fenv.WriteFile(Path("full2"), "data").IsIOError());
  EXPECT_TRUE(fenv.RemoveFile(Path("full")).ok());
  EXPECT_TRUE(fenv.ReadFile(Path("missing")).status().IsIOError());  // real
}

TEST_F(EnvTest, TransientFaultHealsAfterConfiguredFailures) {
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 2;
  opts.kind = FaultInjectionEnv::FaultKind::kTransient;
  opts.transient_failures = 2;
  FaultInjectionEnv fenv(env_, opts);
  EXPECT_TRUE(fenv.WriteFile(Path("t0"), "x").ok());
  EXPECT_TRUE(fenv.WriteFile(Path("t1"), "x").ok());
  EXPECT_TRUE(fenv.WriteFile(Path("t2"), "x").IsUnavailable());
  EXPECT_TRUE(fenv.WriteFile(Path("t2"), "x").IsUnavailable());
  EXPECT_TRUE(fenv.WriteFile(Path("t2"), "x").ok());  // healed
  EXPECT_EQ(fenv.faults_fired(), 2u);
}

TEST_F(EnvTest, OpCountCountsMutatingOpsOnly) {
  FaultInjectionEnv fenv(env_);
  ASSERT_TRUE(fenv.CreateDirs(Path("d")).ok());              // op 0
  ASSERT_TRUE(fenv.WriteFile(Path("d/f"), "x").ok());        // op 1
  ASSERT_TRUE(fenv.SyncFile(Path("d/f")).ok());              // op 2
  ASSERT_TRUE(fenv.ReadFile(Path("d/f")).ok());              // not counted
  ASSERT_TRUE(fenv.ListDir(Path("d")).ok());                 // not counted
  EXPECT_TRUE(fenv.FileExists(Path("d/f")));                 // not counted
  ASSERT_TRUE(fenv.RenameFile(Path("d/f"), Path("d/g")).ok());  // op 3
  ASSERT_TRUE(fenv.SyncDir(Path("d")).ok());                 // op 4
  ASSERT_TRUE(fenv.RemoveFile(Path("d/g")).ok());            // op 5
  ASSERT_TRUE(fenv.RemoveAll(Path("d")).ok());               // op 6
  EXPECT_EQ(fenv.op_count(), 7u);
  EXPECT_EQ(fenv.faults_fired(), 0u);
}

TEST_F(EnvTest, RetryTransientSucceedsWithinBudget) {
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 0;
  opts.kind = FaultInjectionEnv::FaultKind::kTransient;
  opts.transient_failures = 2;
  FaultInjectionEnv fenv(env_, opts);
  RetryPolicy policy;  // 4 attempts
  Status st = RetryTransient(&fenv, policy, [&] {
    return fenv.WriteFile(Path("r"), "payload");
  });
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(fenv.sleep_count(), 2u);  // one backoff per transient failure
  EXPECT_GT(fenv.total_sleep_micros(), 0u);
  EXPECT_TRUE(env_->FileExists(Path("r")));
}

TEST_F(EnvTest, RetryTransientIsBounded) {
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 0;
  opts.kind = FaultInjectionEnv::FaultKind::kTransient;
  opts.transient_failures = 1'000;  // never heals within the budget
  FaultInjectionEnv fenv(env_, opts);
  RetryPolicy policy;
  policy.max_attempts = 4;
  Status st = RetryTransient(&fenv, policy, [&] {
    return fenv.WriteFile(Path("r"), "payload");
  });
  EXPECT_TRUE(st.IsUnavailable()) << st;
  // Exactly max_attempts tries, max_attempts - 1 backoffs: bounded.
  EXPECT_EQ(fenv.op_count(), 4u);
  EXPECT_EQ(fenv.sleep_count(), 3u);
}

TEST_F(EnvTest, DecorrelatedJitterSleepsStayWithinTheConfiguredBounds) {
  // Many long outages, each a fresh retry loop: every single backoff the
  // jittered policy requests lies in [initial, max], whatever the jitter
  // stream drew.
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_micros = 100;
  policy.max_backoff_micros = 2'000;
  ASSERT_TRUE(policy.decorrelated_jitter);
  for (int run = 0; run < 50; ++run) {
    FaultInjectionEnv::Options opts;
    opts.fail_at_op = 0;
    opts.kind = FaultInjectionEnv::FaultKind::kTransient;
    opts.transient_failures = 1'000;
    FaultInjectionEnv fenv(env_, opts);
    Status st = RetryTransient(&fenv, policy, [&] {
      return fenv.WriteFile(Path("j"), "payload");
    });
    EXPECT_TRUE(st.IsUnavailable());
    const std::vector<uint64_t> sleeps = fenv.sleep_history();
    ASSERT_EQ(sleeps.size(), policy.max_attempts - 1);
    for (uint64_t s : sleeps) {
      EXPECT_GE(s, policy.initial_backoff_micros);
      EXPECT_LE(s, policy.max_backoff_micros);
    }
  }
}

TEST_F(EnvTest, DecorrelatedJitterDesynchronizesRetryLoops) {
  // The point of the jitter: two retry loops hit by the same fault must
  // not sleep in lockstep. With 7 draws from a wide range, identical
  // histories across two loops would be astronomically unlikely.
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff_micros = 100;
  policy.max_backoff_micros = 1'000'000;
  auto run_loop = [&] {
    FaultInjectionEnv::Options opts;
    opts.fail_at_op = 0;
    opts.kind = FaultInjectionEnv::FaultKind::kTransient;
    opts.transient_failures = 1'000;
    FaultInjectionEnv fenv(env_, opts);
    (void)RetryTransient(&fenv, policy, [&] {
      return fenv.WriteFile(Path("j2"), "payload");
    });
    return fenv.sleep_history();
  };
  EXPECT_NE(run_loop(), run_loop());
}

TEST_F(EnvTest, LegacyDoublingBackoffIsExactWhenJitterIsOff) {
  // decorrelated_jitter = false restores the deterministic schedule:
  // initial, 2x, 4x, ... capped at max -- byte-for-byte predictable.
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_micros = 100;
  policy.max_backoff_micros = 1'000;
  policy.decorrelated_jitter = false;
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 0;
  opts.kind = FaultInjectionEnv::FaultKind::kTransient;
  opts.transient_failures = 1'000;
  FaultInjectionEnv fenv(env_, opts);
  Status st = RetryTransient(&fenv, policy, [&] {
    return fenv.WriteFile(Path("d"), "payload");
  });
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(fenv.sleep_history(),
            (std::vector<uint64_t>{100, 200, 400, 800, 1'000}));
}

TEST_F(EnvTest, RetryTransientDoesNotRetryHardErrors) {
  FaultInjectionEnv::Options opts;
  opts.fail_at_op = 0;  // hard error
  FaultInjectionEnv fenv(env_, opts);
  Status st = RetryTransient(&fenv, RetryPolicy{}, [&] {
    return fenv.WriteFile(Path("h"), "payload");
  });
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(fenv.sleep_count(), 0u);
  EXPECT_EQ(fenv.op_count(), 1u);
}

// ---------------------------------------------------------------------------
// Snapshot format primitives
// ---------------------------------------------------------------------------

TEST(SnapshotFormatTest, Crc32KnownVectors) {
  // Standard CRC-32 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

TEST(SnapshotFormatTest, KeyEscapingRoundTrips) {
  const std::string hostile[] = {
      "plain",
      "with spaces and / path \\ separators",
      "new\nline",
      "carriage\rreturn",
      "percent 100% done",
      std::string("embedded\0nul", 12),
      "\x01\x02\x7f",
      "",
  };
  for (const std::string& key : hostile) {
    std::string escaped = EscapeKey(key);
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    EXPECT_EQ(escaped.find('\r'), std::string::npos);
    auto back = UnescapeKey(escaped);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, key);
  }
}

TEST(SnapshotFormatTest, UnescapableGarbageRejectedWithTypedStatus) {
  EXPECT_TRUE(UnescapeKey("%").status().IsParseError());
  EXPECT_TRUE(UnescapeKey("%4").status().IsParseError());
  EXPECT_TRUE(UnescapeKey("%GZ").status().IsParseError());
  EXPECT_TRUE(UnescapeKey("ok%").status().IsParseError());
  EXPECT_TRUE(UnescapeKey("raw\nnewline").status().IsParseError());
}

TEST(SnapshotFormatTest, GenerationNames) {
  EXPECT_EQ(GenerationDirName(7), "gen-7");
  EXPECT_EQ(TempGenerationDirName(7), "gen-7.tmp");
  EXPECT_EQ(ParseGenerationDirName("gen-12"), 12u);
  EXPECT_EQ(ParseGenerationDirName("gen-"), std::nullopt);
  EXPECT_EQ(ParseGenerationDirName("gen-12.tmp"), std::nullopt);
  EXPECT_EQ(ParseGenerationDirName("gen-1x"), std::nullopt);
  EXPECT_EQ(ParseGenerationDirName("other"), std::nullopt);
  EXPECT_EQ(ParseTempGenerationDirName("gen-12.tmp"), 12u);
  EXPECT_EQ(ParseTempGenerationDirName("gen-12"), std::nullopt);
}

TEST(SnapshotFormatTest, ManifestRoundTrip) {
  SnapshotManifest m;
  ManifestCollection coll;
  coll.name = "dblp with\nnewline";
  coll.subdir = "c000000";
  coll.docs.push_back({"000000.xml", 42, 0xDEADBEEFu, "key one"});
  coll.docs.push_back({"000001.xml", 0, 0u, "key\ntwo %"});
  m.collections.push_back(coll);
  auto parsed = ParseManifest(m.Format());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->collections.size(), 1u);
  EXPECT_EQ(parsed->collections[0].name, coll.name);
  EXPECT_EQ(parsed->collections[0].subdir, "c000000");
  ASSERT_EQ(parsed->collections[0].docs.size(), 2u);
  EXPECT_EQ(parsed->collections[0].docs[0].bytes, 42u);
  EXPECT_EQ(parsed->collections[0].docs[0].crc32, 0xDEADBEEFu);
  EXPECT_EQ(parsed->collections[0].docs[1].key, "key\ntwo %");
}

TEST(SnapshotFormatTest, ManifestRejectsDamage) {
  SnapshotManifest m;
  ManifestCollection coll;
  coll.name = "c";
  coll.subdir = "c000000";
  coll.docs.push_back({"000000.xml", 5, 0x1234u, "k"});
  m.collections.push_back(coll);
  std::string full = m.Format();

  // Every strict prefix is rejected (truncation is always detected).
  for (size_t cut = 0; cut < full.size(); ++cut) {
    auto r = ParseManifest(full.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of length " << cut << " parsed";
  }
  // Unknown version, and version 1 (its SYMBOLS sidecar is gone).
  EXPECT_TRUE(ParseManifest("toss-snapshot 99\nend-snapshot\n")
                  .status()
                  .IsUnsupported());
  EXPECT_TRUE(ParseManifest("toss-snapshot 1\nend-snapshot\n")
                  .status()
                  .IsUnsupported());
  // Trailing garbage, doc-count mismatches, stray doc lines.
  EXPECT_FALSE(ParseManifest(full + "junk\n").ok());
  EXPECT_FALSE(
      ParseManifest("toss-snapshot 2\ncollection c0 2 name\n"
                    "doc f 1 ab k\nend-snapshot\n")
          .ok());
  EXPECT_FALSE(
      ParseManifest("toss-snapshot 2\ndoc f 1 ab k\nend-snapshot\n").ok());
  // Malformed escape in a key field -> typed ParseError.
  EXPECT_TRUE(
      ParseManifest("toss-snapshot 2\ncollection c0 1 name\n"
                    "doc f 1 ab %GZ\nend-snapshot\n")
          .status()
          .IsParseError());
}

}  // namespace
}  // namespace toss::store
