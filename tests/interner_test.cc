// Tests for the process-wide term interner and the snapshot symbol table
// built on it: hostile terms, id stability, concurrent readers against
// appenders (the lock-free Text()/HasStar() contract; run under the tsan
// preset in CI), the SYMBOLS sidecar round-trip, and corrupt-table
// rejection.

#include "common/interner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "store/database.h"
#include "store/snapshot.h"

namespace toss {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Dictionary basics & hostile terms
// ---------------------------------------------------------------------------

TEST(InternerTest, InternIsIdempotentAndRoundTrips) {
  Interner& in = Interner::Global();
  const SymbolId a = in.Intern("interner_test_alpha");
  ASSERT_NE(a, kInvalidSymbol);
  EXPECT_EQ(in.Intern("interner_test_alpha"), a);
  EXPECT_EQ(in.Text(a), "interner_test_alpha");
  ASSERT_TRUE(in.Find("interner_test_alpha").has_value());
  EXPECT_EQ(*in.Find("interner_test_alpha"), a);
  EXPECT_FALSE(in.Find("interner_test_never_interned_x9z").has_value());
}

TEST(InternerTest, HostileTermsStayDistinct) {
  Interner& in = Interner::Global();
  // Terms that collide under naive normalization or C-string handling:
  // embedded NUL, newline vs its literal %-escape, trailing whitespace.
  const std::string nul1 = std::string("a\0b", 3);
  const std::string nul2 = std::string("a\0c", 3);
  const std::vector<std::string> terms = {
      nul1,    nul2,   "a",           "a\n",      "a%0A",
      "a%0a",  "a ",   " a",          "%00",      std::string(1, '\0'),
      "",      "a\r\n", "a%25",       "a%",
  };
  std::set<SymbolId> ids;
  for (const std::string& t : terms) {
    SymbolId id = in.Intern(t);
    ASSERT_NE(id, kInvalidSymbol) << "term bytes: " << t.size();
    EXPECT_EQ(in.Text(id), t);
    EXPECT_TRUE(ids.insert(id).second)
        << "two distinct terms shared one id (" << t.size() << " bytes)";
  }
  // Re-interning yields the same ids -- including the empty term.
  for (const std::string& t : terms) {
    EXPECT_EQ(in.Intern(t), *in.Find(t));
  }
}

TEST(InternerTest, HasStarTracksGlobWildcards) {
  Interner& in = Interner::Global();
  EXPECT_FALSE(in.HasStar(in.Intern("interner_plain_term")));
  EXPECT_TRUE(in.HasStar(in.Intern("interner_glob_*_term")));
  EXPECT_TRUE(in.HasStar(in.Intern("*")));
}

TEST(InternerTest, IdsAreDenseAndStable) {
  Interner& in = Interner::Global();
  const size_t before = in.size();
  const SymbolId a = in.Intern("interner_dense_probe_a");
  const SymbolId b = in.Intern("interner_dense_probe_b");
  EXPECT_LT(a, in.size());
  EXPECT_LT(b, in.size());
  EXPECT_GE(in.size(), before);
  // Every id below size() resolves without faulting and round-trips
  // through Find (sampling the low, mid, and fresh regions).
  for (SymbolId id : {SymbolId{0}, static_cast<SymbolId>(in.size() / 2), a}) {
    const std::string text(in.Text(id));
    ASSERT_TRUE(in.Find(text).has_value()) << id;
    EXPECT_EQ(*in.Find(text), id);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: lock-free readers against appenders (tsan target)
// ---------------------------------------------------------------------------

TEST(InternerTest, ConcurrentInternAndReadersAgree) {
  Interner& in = Interner::Global();
  constexpr int kThreads = 8;
  constexpr int kTermsPerThread = 400;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<std::vector<SymbolId>> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      ids[t].reserve(kTermsPerThread);
      for (int i = 0; i < kTermsPerThread; ++i) {
        // Half the terms are shared across threads (every thread races to
        // intern them), half are thread-private.
        std::string term =
            (i % 2 == 0)
                ? "interner_mt_shared_" + std::to_string(i)
                : "interner_mt_t" + std::to_string(t) + "_" +
                      std::to_string(i);
        SymbolId id = in.Intern(term);
        ASSERT_NE(id, kInvalidSymbol);
        ids[t].push_back(id);
        // Lock-free read-back of an id another thread may just have
        // published, plus one of our own.
        EXPECT_EQ(in.Text(id), term);
        if (i > 0) {
          EXPECT_FALSE(std::string_view(in.Text(ids[t][i / 2])).empty());
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  // Shared terms resolved to one id everywhere.
  for (int i = 0; i < kTermsPerThread; i += 2) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[t][i], ids[0][i]) << "thread " << t << " term " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// SYMBOLS sidecar format
// ---------------------------------------------------------------------------

TEST(SymbolsFileTest, RoundTripsHostileTerms) {
  const std::vector<std::string> terms = {
      "",      "plain", "two\nlines", std::string("n\0l", 3),
      "a%0A",  "x\r",   "tab\there",  "sp ace",
  };
  const std::string payload = store::FormatSymbolsFile(terms);
  auto parsed = store::ParseSymbolsFile(payload, terms.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, terms);
}

TEST(SymbolsFileTest, RejectsTruncationAndCountMismatch) {
  const std::vector<std::string> terms = {"a", "b", "c"};
  const std::string payload = store::FormatSymbolsFile(terms);
  // Missing trailing newline = torn final line.
  auto torn = store::ParseSymbolsFile(
      std::string_view(payload).substr(0, payload.size() - 1), 3);
  EXPECT_TRUE(torn.status().IsParseError());
  // Count mismatch against the manifest.
  EXPECT_TRUE(store::ParseSymbolsFile(payload, 2).status().IsParseError());
  EXPECT_TRUE(store::ParseSymbolsFile(payload, 4).status().IsParseError());
  // Malformed escape inside a line.
  EXPECT_TRUE(store::ParseSymbolsFile("%GG\n", 1).status().IsParseError());
}

// ---------------------------------------------------------------------------
// Snapshot symbol-table persistence
// ---------------------------------------------------------------------------

/// Builds a one-collection database whose documents carry marker terms.
store::Database MakeDb(const std::string& marker) {
  store::Database db;
  auto coll = db.CreateCollection("c");
  EXPECT_TRUE(coll.ok());
  EXPECT_TRUE((*coll)
                  ->InsertXml("d1", "<paper><title>" + marker +
                                        "</title></paper>")
                  .ok());
  EXPECT_TRUE((*coll)->InsertXml("d2", "<paper><year>1999</year></paper>").ok());
  return db;
}

/// The committed generation directory of `dir` per CURRENT.
fs::path GenDir(const fs::path& dir) {
  std::ifstream current(dir / store::kCurrentFileName);
  std::string gen;
  std::getline(current, gen);
  return dir / gen;
}

TEST(SnapshotSymbolsTest, SaveWritesAChecksummedTableAndOpenAcceptsIt) {
  fs::path dir = fs::temp_directory_path() / "toss_interner_snapshot";
  fs::remove_all(dir);
  store::Database db = MakeDb("SymbolRoundTrip");
  ASSERT_TRUE(db.Save(dir.string()).ok());

  // The manifest records the sidecar; the sidecar holds every tag/content
  // term of the documents.
  fs::path gdir = GenDir(dir);
  std::ifstream mf(gdir / store::kManifestFileName);
  std::string manifest((std::istreambuf_iterator<char>(mf)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("\nsymbols " +
                          std::string(store::kSymbolsFileName) + " "),
            std::string::npos)
      << manifest;
  auto parsed = store::ParseManifest(manifest);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  std::ifstream sf(gdir / store::kSymbolsFileName, std::ios::binary);
  std::string payload((std::istreambuf_iterator<char>(sf)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(payload.size(), parsed->symbols.bytes);
  EXPECT_EQ(store::Crc32(payload), parsed->symbols.crc32);
  auto terms = store::ParseSymbolsFile(payload, parsed->symbols.count);
  ASSERT_TRUE(terms.ok()) << terms.status();
  std::set<std::string> term_set(terms->begin(), terms->end());
  for (const char* expected :
       {"paper", "title", "SymbolRoundTrip", "year", "1999"}) {
    EXPECT_TRUE(term_set.count(expected)) << expected;
  }

  // Open verifies and pre-interns; every persisted term is then findable.
  auto reopened = store::Database::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  for (const std::string& t : *terms) {
    EXPECT_TRUE(Interner::Global().Find(t).has_value()) << t;
  }
  fs::remove_all(dir);
}

TEST(SnapshotSymbolsTest, CorruptTableRejectsTheGeneration) {
  fs::path dir = fs::temp_directory_path() / "toss_interner_corrupt";
  fs::remove_all(dir);
  store::Database db = MakeDb("CorruptMarker");
  ASSERT_TRUE(db.Save(dir.string()).ok());

  // Flip a byte in the sidecar: the CRC catches it and, with no older
  // generation to degrade to, Open fails rather than load silently.
  fs::path sym = GenDir(dir) / store::kSymbolsFileName;
  std::ifstream sf(sym, std::ios::binary);
  std::string payload((std::istreambuf_iterator<char>(sf)),
                      std::istreambuf_iterator<char>());
  sf.close();
  ASSERT_FALSE(payload.empty());
  payload[0] ^= 0x01;
  {
    std::ofstream out(sym, std::ios::binary | std::ios::trunc);
    out << payload;
  }
  auto reopened = store::Database::Open(dir.string());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsIOError()) << reopened.status();

  // A second Save writes a fresh intact generation; Open recovers.
  ASSERT_TRUE(db.Save(dir.string()).ok());
  EXPECT_TRUE(store::Database::Open(dir.string()).ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace toss
