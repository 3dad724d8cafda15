// Tests for the process-wide term interner: hostile terms, id stability,
// and concurrent readers against appenders (the lock-free Text()/HasStar()
// contract; run under the tsan preset in CI).

#include "common/interner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace toss {
namespace {

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

}  // namespace
}  // namespace toss
