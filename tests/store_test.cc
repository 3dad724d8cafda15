#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/random.h"
#include "obs/metrics.h"
#include "store/database.h"
#include "store/key_encoding.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace toss::store {
namespace {

/// Adds three small papers: p1 and p2 inproceedings, p3 an article.
void AddSmallPapers(Collection& coll) {
  EXPECT_TRUE(coll.InsertXml("p1",
                             "<inproceedings><author>Jeffrey Ullman</author>"
                             "<booktitle>SIGMOD Conference</booktitle>"
                             "<year>1999</year></inproceedings>")
                  .ok());
  EXPECT_TRUE(coll.InsertXml("p2",
                             "<inproceedings><author>Serge Abiteboul</author>"
                             "<booktitle>VLDB</booktitle>"
                             "<year>2000</year></inproceedings>")
                  .ok());
  EXPECT_TRUE(coll.InsertXml("p3",
                             "<article><author>Jeffrey Ullman</author>"
                             "<journal>TODS</journal></article>")
                  .ok());
}

PlanStep TagStep(std::string tag) {
  PlanStep step;
  step.tag = std::move(tag);
  return step;
}

PlanStep ValueStep(std::string tag, std::string value) {
  PlanStep step = TagStep(std::move(tag));
  step.any_of = {{std::move(value)}};
  return step;
}

/// The keys of `docs`, sorted.
std::vector<std::string> Keys(const Collection& coll,
                              const std::vector<DocId>& docs) {
  std::vector<std::string> keys;
  for (DocId id : docs) keys.push_back(coll.key(id));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// The plan's answer without indexes: every live document whose elements
/// satisfy every step.
std::vector<DocId> ScanDocs(const Collection& coll, const PushdownPlan& plan) {
  std::vector<DocId> out;
  for (DocId id : coll.AllDocs()) {
    if (std::all_of(plan.begin(), plan.end(), [&](const PlanStep& step) {
          return StepMatches(coll.document(id), step);
        })) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(KeyEncodingTest, EncodeOrderedIntPreservesNumericOrder) {
  Random rng(17);
  std::vector<long long> values = {-1000000, -42, -1, 0, 1, 7,
                                   1998,     2000, 123456789};
  for (int i = 0; i < 40; ++i) {
    values.push_back(rng.UniformRange(-1000000000LL, 1000000000LL));
  }
  for (long long a : values) {
    for (long long b : values) {
      auto ea = EncodeOrderedInt(std::to_string(a));
      auto eb = EncodeOrderedInt(std::to_string(b));
      ASSERT_TRUE(ea.has_value());
      ASSERT_TRUE(eb.has_value());
      EXPECT_EQ(a < b, *ea < *eb) << a << " vs " << b;
      EXPECT_EQ(a == b, *ea == *eb);
    }
  }
}

TEST(KeyEncodingTest, NonCanonicalSpellingsNormalize) {
  EXPECT_EQ(EncodeOrderedInt("007"), EncodeOrderedInt("7"));
  EXPECT_EQ(EncodeOrderedInt(" 42 "), EncodeOrderedInt("42"));
  EXPECT_EQ(EncodeOrderedInt("abc"), std::nullopt);
  EXPECT_EQ(EncodeOrderedInt("3.5"), std::nullopt);
  EXPECT_EQ(EncodeOrderedInt(""), std::nullopt);
}

TEST(KeyEncodingTest, CompositeKeysAndPrefixBounds) {
  std::string key = ValueKey("year", "1999");
  EXPECT_EQ(key, std::string("year") + kKeySep + "1999");
  // Every key with the tag prefix sorts below the prefix end.
  std::string end = TagPrefixEnd("year");
  EXPECT_LT(key, end);
  EXPECT_LT(ValueKey("year", "\xf0\xf0"), end);
  // Keys of other tags sort outside.
  EXPECT_GT(ValueKey("zzz", "1"), end);
  auto numeric = NumericKey("year", "1999");
  ASSERT_TRUE(numeric.has_value());
  EXPECT_LT(*numeric, end);
  EXPECT_EQ(NumericKey("year", "abc"), std::nullopt);
}

TEST(CollectionTest, InsertAndLookup) {
  Collection coll("papers");
  AddSmallPapers(coll);
  EXPECT_EQ(coll.size(), 3u);
  auto id = coll.FindKey("p2");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(coll.key(*id), "p2");
  EXPECT_TRUE(coll.FindKey("nope").status().IsNotFound());
}

TEST(CollectionTest, DuplicateKeyRejected) {
  Collection coll("c");
  ASSERT_TRUE(coll.InsertXml("k", "<a/>").ok());
  EXPECT_TRUE(coll.InsertXml("k", "<b/>").status().IsAlreadyExists());
}

TEST(CollectionTest, MalformedXmlRejected) {
  Collection coll("c");
  EXPECT_TRUE(coll.InsertXml("k", "<a><b></a>").status().IsParseError());
  EXPECT_EQ(coll.size(), 0u);
}

TEST(CollectionTest, QueryAcrossDocuments) {
  Collection coll("papers");
  AddSmallPapers(coll);
  EXPECT_EQ(Keys(coll, coll.PlanDocs({ValueStep("author", "Jeffrey Ullman")})),
            (std::vector<std::string>{"p1", "p3"}));
  EXPECT_EQ(Keys(coll, coll.PlanDocs({TagStep("inproceedings"),
                                      ValueStep("booktitle", "VLDB")})),
            (std::vector<std::string>{"p2"}));
}

TEST(CollectionTest, IndexPruningStats) {
  Collection coll("papers");
  AddSmallPapers(coll);
  const PushdownPlan plan = {TagStep("inproceedings"),
                             ValueStep("booktitle", "VLDB")};
  QueryStats stats;
  auto docs = coll.PlanDocs(plan, &stats);
  EXPECT_EQ(docs, ScanDocs(coll, plan));  // same answers as a full scan
  EXPECT_EQ(stats.candidate_docs, 1u);    // the value index pinpoints p2
  EXPECT_EQ(stats.scanned_docs, 0u);      // and decides it: no DOM touched
  EXPECT_EQ(stats.total_docs, 3u);
}

TEST(CollectionTest, TermIndexPrunesContains) {
  Collection coll("papers");
  AddSmallPapers(coll);
  ASSERT_TRUE(
      coll.InsertXml("p4", "<paper><author>Abiteboulian</author></paper>")
          .ok());
  ASSERT_TRUE(
      coll.InsertXml("p5", "<paper><author>Serge Abiteboul Jr</author></paper>")
          .ok());
  // A value may hold the literal's first and last word inside longer words
  // ("Abiteboulian" contains "Abiteboul"), so those words prune nothing:
  // every author document is checked.
  PlanStep step = TagStep("author");
  step.contains = {"Abiteboul"};
  QueryStats stats;
  EXPECT_EQ(Keys(coll, coll.PlanDocs({step}, &stats)),
            (std::vector<std::string>{"p2", "p4", "p5"}));
  EXPECT_EQ(stats.scanned_docs, 5u);
  // A word the literal encloses is a whole word of every containing value:
  // its term posting leaves only p2 and p5 to check.
  step.contains = {"Serge Abiteboul Jr"};
  EXPECT_EQ(Keys(coll, coll.PlanDocs({step}, &stats)),
            (std::vector<std::string>{"p5"}));
  EXPECT_EQ(stats.scanned_docs, 2u);
}

TEST(CollectionTest, ValuePostingsAreFilteredByWordPostings) {
  Collection coll("c");
  for (const char* xml : {"<t>a b c</t>", "<t>a x c</t>", "<t>q b r</t>",
                          "<t>q b s</t>", "<t>q b u</t>"}) {
    ASSERT_TRUE(coll.InsertXml("d" + std::to_string(coll.size()), xml).ok());
  }
  // The union of the value postings (d0, d1) is the smallest posting; the
  // term posting of the enclosed word "b" drops d1 before any check.
  PlanStep step = TagStep("t");
  step.any_of = {{"a b c", "a x c"}};
  step.contains = {"a b c"};
  QueryStats stats;
  EXPECT_EQ(Keys(coll, coll.PlanDocs({step}, &stats)),
            (std::vector<std::string>{"d0"}));
  EXPECT_EQ(stats.scanned_docs, 1u);
}

TEST(CollectionTest, MissingTagShortCircuits) {
  Collection coll("papers");
  AddSmallPapers(coll);
  QueryStats stats;
  EXPECT_TRUE(coll.PlanDocs({TagStep("phdthesis")}, &stats).empty());
  EXPECT_EQ(stats.scanned_docs, 0u);
}

TEST(CollectionTest, RemoveHidesDocument) {
  Collection coll("papers");
  AddSmallPapers(coll);
  ASSERT_TRUE(coll.Remove("p1").ok());
  EXPECT_TRUE(coll.Remove("p1").IsNotFound());
  EXPECT_EQ(Keys(coll, coll.PlanDocs({ValueStep("author", "Jeffrey Ullman")})),
            (std::vector<std::string>{"p3"}));
  EXPECT_EQ(coll.AllDocs().size(), 2u);
}

// The pushdown plan (Collection::PlanDocs): which steps the postings
// decide, and which documents need an element check.
TEST(CollectionTest, PlanDocsChecksOnlyWhatPostingsCannotDecide) {
  Collection coll("papers");
  for (const char* xml :
       {"<paper><venue>VLDB</venue><year>1999</year></paper>",
        "<paper><venue>SIGMOD</venue><year>2000</year></paper>",
        "<paper><venue>VLDB</venue><year>2001</year></paper>",
        // Mixed content: the venue's own text is "Views", its full text
        // "Viewsx"; the value index keys only the latter.
        "<paper><venue>Views<i>x</i></venue></paper>"}) {
    ASSERT_TRUE(coll.InsertXml("p" + std::to_string(coll.size()), xml).ok());
  }
  auto run = [&](const PushdownPlan& plan, QueryStats* stats,
                 std::vector<PlanStepStats>* steps = nullptr) {
    return coll.PlanDocs(plan, stats, steps);
  };

  // Two any-of groups on one element: a value both hold. Only the
  // mixed-content document needs a check.
  PlanStep venue;
  venue.tag = "venue";
  venue.any_of = {{"VLDB", "SIGMOD"}, {"VLDB", "ICDE"}};
  QueryStats stats;
  std::vector<PlanStepStats> steps;
  EXPECT_EQ(run({venue}, &stats, &steps), (std::vector<DocId>{0, 2}));
  EXPECT_EQ(stats.scanned_docs, 1u);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].checked_docs, 1u);

  // The element check compares the element's own text.
  venue.any_of = {{"Views"}};
  EXPECT_EQ(run({venue}, &stats), (std::vector<DocId>{3}));
  EXPECT_EQ(stats.scanned_docs, 1u);

  // A bare tag step is its posting; a range only prefilters, and the
  // survivors are checked after the smaller step ran.
  PlanStep paper;
  paper.tag = "paper";
  PlanStep year;
  year.tag = "year";
  year.bounds = {{PlanStep::Order::kGt, "1999"}};
  steps.clear();
  EXPECT_EQ(run({paper, year}, &stats, &steps), (std::vector<DocId>{1, 2}));
  EXPECT_EQ(stats.scanned_docs, 3u);  // 1999 to 2001: the scan is inclusive
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].step, 1u);  // the year step admits fewer documents
  EXPECT_EQ(steps[1].step, 0u);
  EXPECT_EQ(steps[1].checked_docs, 0u);

  // Exact steps touch only the documents their postings cannot describe:
  // here the mixed-content one. A plan without such documents touches
  // none; an empty plan admits all.
  venue.any_of = {{"SIGMOD"}};
  EXPECT_EQ(run({paper, venue}, &stats), (std::vector<DocId>{1}));
  EXPECT_EQ(stats.scanned_docs, 1u);
  year.bounds.clear();
  year.any_of = {{"2000", "2001"}};
  EXPECT_EQ(run({paper, year}, &stats), (std::vector<DocId>{1, 2}));
  EXPECT_EQ(stats.scanned_docs, 0u);
  EXPECT_EQ(run({}, &stats).size(), 4u);
}

TEST(CollectionTest, DocsWithValueInRange) {
  Collection coll("papers");
  for (int year = 1995; year <= 2003; ++year) {
    ASSERT_TRUE(coll.InsertXml("p" + std::to_string(year),
                               "<p><year>" + std::to_string(year) +
                                   "</year><name>n" +
                                   std::to_string(year) + "</name></p>")
                    .ok());
  }
  // Closed numeric range.
  auto r = coll.DocsWithValueInRange("year", std::string("1998"),
                                     std::string("2000"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 3u);
  // One-sided ranges.
  auto ge = coll.DocsWithValueInRange("year", std::string("2001"),
                                      std::nullopt);
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(ge->size(), 3u);
  auto le = coll.DocsWithValueInRange("year", std::nullopt,
                                      std::string("1996"));
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(le->size(), 2u);
  // Lexicographic range over a string field.
  auto lex = coll.DocsWithValueInRange("name", std::string("n1999"),
                                       std::string("n2001"));
  ASSERT_TRUE(lex.ok());
  EXPECT_EQ(lex->size(), 3u);
  // Unknown tag: empty.
  auto none = coll.DocsWithValueInRange("ghost", std::string("a"),
                                        std::string("z"));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // Open ranges stop at the tag's last key: the keys of "years" and
  // "names" sort right after those of "year" and "name".
  ASSERT_TRUE(coll.InsertXml("later", "<p><years>2002</years>"
                                      "<names>n2002</names></p>")
                  .ok());
  EXPECT_EQ(coll.DocsWithValueInRange("year", std::string("2001"),
                                      std::nullopt)
                ->size(),
            3u);
  EXPECT_EQ(coll.DocsWithValueInRange("name", std::string("n2001"),
                                      std::nullopt)
                ->size(),
            3u);
  // Inverted bounds: empty.
  EXPECT_TRUE(coll.DocsWithValueInRange("year", std::string("2000"),
                                        std::string("1998"))
                  ->empty());
  EXPECT_TRUE(coll.DocsWithValueInRange("name", std::string("n2000"),
                                        std::string("n1998"))
                  ->empty());
  // Non-integer numeric bounds are unsupported.
  EXPECT_TRUE(coll.DocsWithValueInRange("year", std::string("3.5"),
                                        std::nullopt)
                  .status()
                  .IsUnsupported());
}

TEST(CollectionTest, NumericRangeHandlesWidthsAndNegatives) {
  Collection coll("vals");
  for (const char* v : {"-20", "-3", "0", "7", "42", "999", "1000", "007"}) {
    std::string key = std::string("k") + v;
    ASSERT_TRUE(
        coll.InsertXml(key, "<r><v>" + std::string(v) + "</v></r>").ok());
  }
  auto r = coll.DocsWithValueInRange("v", std::string("-5"),
                                     std::string("50"));
  ASSERT_TRUE(r.ok());
  // -3, 0, 7, 42, and "007" (numeric 7) are in [-5, 50].
  EXPECT_EQ(r->size(), 5u);
  auto all = coll.DocsWithValueInRange("v", std::string("-100"),
                                       std::string("2000"));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 8u);
}

TEST(CollectionTest, RangePredicatePrunesViaIndex) {
  Collection coll("papers");
  for (int year = 1990; year <= 2009; ++year) {
    ASSERT_TRUE(coll.InsertXml("p" + std::to_string(year),
                               "<p><year>" + std::to_string(year) +
                                   "</year></p>")
                    .ok());
  }
  PlanStep year = TagStep("year");
  year.bounds = {{PlanStep::Order::kGeq, "2000"}, {PlanStep::Order::kLeq, "2002"}};
  const PushdownPlan plan = {TagStep("p"), year};
  QueryStats stats;
  auto docs = coll.PlanDocs(plan, &stats);
  EXPECT_EQ(docs.size(), 3u);
  EXPECT_EQ(stats.scanned_docs, 3u);  // range scans pinpoint the candidates
  EXPECT_EQ(docs, ScanDocs(coll, plan));  // same answers as a full scan
}

TEST(CollectionTest, ReplaceSwapsContentAndReindexes) {
  Collection coll("papers");
  AddSmallPapers(coll);
  auto id = coll.Replace("p1",
                         std::move(*xml::Parse("<inproceedings>"
                                               "<author>New Author</author>"
                                               "</inproceedings>")));
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(coll.AllDocs().size(), 3u);
  // Old content is gone from the indexes; new content is queryable.
  EXPECT_EQ(Keys(coll, coll.PlanDocs({ValueStep("author", "Jeffrey Ullman")})),
            (std::vector<std::string>{"p3"}));
  EXPECT_EQ(Keys(coll, coll.PlanDocs({ValueStep("author", "New Author")})),
            (std::vector<std::string>{"p1"}));
  EXPECT_TRUE(coll.Replace("ghost", xml::XmlDocument()).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      coll.Replace("ghost", std::move(*xml::Parse("<x/>"))).status()
          .IsNotFound());
}

TEST(CollectionTest, ApproxByteSizePositive) {
  Collection coll("papers");
  AddSmallPapers(coll);
  size_t full = coll.ApproxByteSize();
  EXPECT_GT(full, 100u);
  ASSERT_TRUE(coll.Remove("p1").ok());
  EXPECT_LT(coll.ApproxByteSize(), full);
}

TEST(CollectionTest, ApproxByteSizeMatchesSerialization) {
  // The sum must equal what serializing every live document reports.
  Collection coll("papers");
  AddSmallPapers(coll);
  size_t expected = 0;
  for (DocId id : coll.AllDocs()) {
    expected += xml::Write(coll.document(id)).size();
  }
  EXPECT_EQ(coll.ApproxByteSize(), expected);
  ASSERT_TRUE(
      coll.Replace("p1", std::move(*xml::Parse("<a><b>tiny</b></a>"))).ok());
  expected = 0;
  for (DocId id : coll.AllDocs()) {
    expected += xml::Write(coll.document(id)).size();
  }
  EXPECT_EQ(coll.ApproxByteSize(), expected);
}

TEST(CollectionTest, DecodedTreeIsBuiltOnceAndShared) {
  Collection coll("papers");
  AddSmallPapers(coll);
  auto id = coll.FindKey("p1");
  ASSERT_TRUE(id.ok());
  auto tree = coll.DecodedTree(*id);
  ASSERT_NE(tree, nullptr);
  tax::DataTree fresh =
      tax::DataTree::FromXml(coll.document(*id), coll.document(*id).root());
  EXPECT_TRUE(tree->Equals(fresh));
  EXPECT_TRUE(tree->has_tag_index());
  // Second access is a hit on the same instance.
  auto again = coll.DecodedTree(*id);
  EXPECT_EQ(tree.get(), again.get());
  auto stats = coll.GetTreeCacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CollectionTest, DecodedTreeDroppedOnReplaceAndRemove) {
  Collection coll("papers");
  AddSmallPapers(coll);
  auto id = coll.FindKey("p2");
  ASSERT_TRUE(id.ok());
  auto before = coll.DecodedTree(*id);
  std::weak_ptr<const tax::DataTree> dead = before;
  EXPECT_EQ(coll.GetTreeCacheStats().entries, 1u);
  auto new_id = coll.Replace(
      "p2", std::move(*xml::Parse("<inproceedings><booktitle>ICDE"
                                  "</booktitle></inproceedings>")));
  ASSERT_TRUE(new_id.ok());
  EXPECT_NE(*new_id, *id);
  // The dead DocId's tree is dropped; the new id decodes the new content.
  EXPECT_EQ(coll.GetTreeCacheStats().entries, 0u);
  auto after = coll.DecodedTree(*new_id);
  ASSERT_EQ(after->size(), 2u);
  EXPECT_EQ(after->node(1).content, "ICDE");
  // The old shared_ptr stays valid for readers that grabbed it pre-replace,
  // and the tree is freed with the last of them.
  EXPECT_EQ(before->node(0).tag, "inproceedings");
  before.reset();
  EXPECT_TRUE(dead.expired());
  dead = after;
  after.reset();
  ASSERT_TRUE(coll.Remove("p2").ok());
  EXPECT_EQ(coll.GetTreeCacheStats().entries, 0u);
  EXPECT_TRUE(dead.expired());
}

// A replaced or removed document leaves the collection: its entry, key and
// decoded tree are freed, however often one key churns.
TEST(CollectionTest, ChurnKeepsOnlyTheLiveDocument) {
  Collection coll("papers");
  auto paper = [](int rev) {
    return "<paper><title>Revision " + std::to_string(rev) +
           "</title><year>1999</year></paper>";
  };
  ASSERT_TRUE(coll.InsertXml("k", paper(0)).ok());
  std::weak_ptr<const tax::DataTree> first = coll.DecodedTree(*coll.FindKey("k"));
  constexpr int kReplaces = 10000;
  DocId last = 0;
  for (int rev = 1; rev <= kReplaces; ++rev) {
    auto id = coll.Replace("k", std::move(*xml::Parse(paper(rev))));
    ASSERT_TRUE(id.ok()) << id.status();
    last = *id;
  }
  EXPECT_EQ(coll.size(), 1u);
  EXPECT_EQ(coll.AllDocs(), (std::vector<DocId>{last}));
  EXPECT_TRUE(first.expired());
  EXPECT_EQ(coll.GetTreeCacheStats().entries, 0u);
  EXPECT_EQ(coll.ApproxByteSize(),
            xml::Write(*xml::Parse(paper(kReplaces))).size());
  ASSERT_TRUE(coll.Remove("k").ok());
  EXPECT_EQ(coll.size(), 0u);
  EXPECT_TRUE(coll.AllDocs().empty());
}

TEST(CollectionTest, DecodedTreeCountersMirrorRegistry) {
  obs::Counter& reg_hits = obs::Metrics().GetCounter("store.tree_cache.hits");
  obs::Counter& reg_misses =
      obs::Metrics().GetCounter("store.tree_cache.misses");
  const uint64_t hits_before = reg_hits.Value();
  const uint64_t misses_before = reg_misses.Value();

  Collection coll("papers");
  AddSmallPapers(coll);
  auto id = coll.FindKey("p1");
  ASSERT_TRUE(id.ok());
  (void)coll.DecodedTree(*id);  // miss
  (void)coll.DecodedTree(*id);  // hit
  EXPECT_EQ(coll.GetTreeCacheStats().hits, 1u);
  EXPECT_EQ(coll.GetTreeCacheStats().misses, 1u);
  EXPECT_EQ(reg_hits.Value(), hits_before + 1);
  EXPECT_EQ(reg_misses.Value(), misses_before + 1);
}

// Racing first calls on one document decode it more than once, but every
// caller gets the one tree that was stored first, and each call counts as
// exactly one hit or one miss.
TEST(CollectionTest, ConcurrentDecodedTreeYieldsOneTreePerDocument) {
  Collection coll("papers");
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(coll.InsertXml("k" + std::to_string(i),
                               "<paper><title>T" + std::to_string(i) +
                                   "</title><year>" + std::to_string(1990 + i) +
                                   "</year></paper>")
                    .ok());
  }
  const std::vector<DocId> ids = coll.AllDocs();
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 3;
  std::vector<std::vector<const tax::DataTree*>> seen(
      kThreads, std::vector<const tax::DataTree*>(ids.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < ids.size(); ++i) {
          // A later round returning another tree clears the record.
          auto tree = coll.DecodedTree(ids[i]);
          if (round == 0) {
            seen[t][i] = tree.get();
          } else if (tree.get() != seen[t][i]) {
            seen[t][i] = nullptr;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t i = 0; i < ids.size(); ++i) {
    auto tree = coll.DecodedTree(ids[i]);
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][i], tree.get()) << "thread " << t << " doc " << i;
    }
    const xml::XmlDocument& doc = coll.document(ids[i]);
    EXPECT_TRUE(tree->Equals(tax::DataTree::FromXml(doc, doc.root())));
  }
  const auto stats = coll.GetTreeCacheStats();
  EXPECT_EQ(stats.hits + stats.misses, (kThreads * kRounds + 1) * ids.size());
  EXPECT_GE(stats.misses, ids.size());
  EXPECT_EQ(stats.entries, ids.size());
}

TEST(CollectionTest, StatsTrackIndexes) {
  Collection coll("papers");
  AddSmallPapers(coll);
  auto stats = coll.GetStats();
  EXPECT_EQ(stats.live_docs, 3u);
  EXPECT_GT(stats.tag_index_entries, 3u);
  EXPECT_GT(stats.term_index_entries, 5u);
  EXPECT_GT(stats.value_index_keys, 5u);
  EXPECT_GE(stats.numeric_index_keys, 2u);  // the two year values
  EXPECT_GT(stats.approx_bytes, 100u);
  ASSERT_TRUE(coll.Remove("p1").ok());
  auto after = coll.GetStats();
  EXPECT_EQ(after.live_docs, 2u);
  EXPECT_LT(after.value_index_keys, stats.value_index_keys);
}

// Removal erases exactly what insertion added: after a random run of
// Insert / Replace / Remove, the indexes answer and measure like those of a
// collection built fresh from the live documents.
TEST(CollectionTest, ChurnedIndexesEqualFreshOnes) {
  Random rng(2207);
  const std::vector<std::string> tags = {"author", "year", "venue", "ye*",
                                         "note"};
  const std::vector<std::string> values = {
      "Jeffrey Ullman", "Serge Abiteboul", "1999", "2000", "007", "-5",
      "3.5",            "",                "Data*", "Views of Data",
      std::string(300, 'q')};
  // Bound literals: integers in several spellings, a non-integer number
  // (which no index scans), strings, and the empty string.
  const std::vector<std::string> literals = {"007", "-5",   "1999", "2000",
                                             "Data", "",    "3.5",  "Views"};
  const std::vector<PlanStep::Order> orders = {
      PlanStep::Order::kLt, PlanStep::Order::kLeq, PlanStep::Order::kGt,
      PlanStep::Order::kGeq};
  auto random_doc = [&] {
    xml::XmlDocument doc;
    xml::NodeId root = doc.CreateRoot("paper");
    for (size_t i = 1 + rng.Uniform(4); i > 0; --i) {
      // Rare tags and words die with their last document.
      std::string tag = rng.Bernoulli(0.2)
                            ? "t" + std::to_string(rng.Uniform(40))
                            : rng.Choice(tags);
      std::string value = rng.Bernoulli(0.2)
                              ? "w" + std::to_string(rng.Uniform(60)) + " x"
                              : rng.Choice(values);
      if (rng.Bernoulli(0.15)) {  // mixed content
        xml::NodeId el = doc.AppendElement(root, tag);
        doc.AppendText(el, "Views ");
        doc.AppendTextElement(el, "i", value);
      } else {
        doc.AppendTextElement(root, tag, value);
      }
    }
    return doc;
  };
  Collection churned("c");
  std::vector<std::string> keys;
  for (int op = 0; op < 600; ++op) {
    const uint64_t kind = keys.empty() ? 0 : rng.Uniform(3);
    if (kind == 0) {
      keys.push_back("k" + std::to_string(op));
      ASSERT_TRUE(churned.Insert(keys.back(), random_doc()).ok());
      continue;
    }
    const size_t at = rng.Uniform(keys.size());
    if (kind == 1) {
      ASSERT_TRUE(churned.Replace(keys[at], random_doc()).ok());
    } else {
      ASSERT_TRUE(churned.Remove(keys[at]).ok());
      keys.erase(keys.begin() + at);
    }
  }
  Collection fresh("c");
  for (DocId id : churned.AllDocs()) {
    ASSERT_TRUE(fresh.Insert(churned.key(id), churned.document(id)).ok());
  }
  const Collection::Stats a = churned.GetStats(), b = fresh.GetStats();
  EXPECT_EQ(a.live_docs, b.live_docs);
  EXPECT_EQ(a.tag_index_entries, b.tag_index_entries);
  EXPECT_EQ(a.term_index_entries, b.term_index_entries);
  EXPECT_EQ(a.value_index_keys, b.value_index_keys);
  EXPECT_EQ(a.numeric_index_keys, b.numeric_index_keys);
  EXPECT_EQ(a.approx_bytes, b.approx_bytes);
  EXPECT_EQ(Keys(churned, churned.DocsWithWildcardTag()),
            Keys(fresh, fresh.DocsWithWildcardTag()));

  auto random_step = [&] {
    PlanStep step = TagStep(rng.Bernoulli(0.2)
                                ? "t" + std::to_string(rng.Uniform(40))
                                : rng.Choice(tags));
    switch (rng.Uniform(4)) {
      case 0:
        step.any_of = {{rng.Choice(values), rng.Choice(values)}};
        break;
      case 1:
        for (size_t n = 1 + rng.Uniform(2); n > 0; --n) {
          step.bounds.push_back({rng.Choice(orders), rng.Choice(literals)});
        }
        break;
      case 2:
        step.contains = {rng.Bernoulli(0.5) ? " of " : "Ullman"};
        break;
      default:
        break;
    }
    return step;
  };
  for (int trial = 0; trial < 1000; ++trial) {
    PushdownPlan plan = {random_step()};
    if (rng.Bernoulli(0.5)) plan.push_back(random_step());
    QueryStats churned_stats, fresh_stats;
    const auto want = Keys(churned, ScanDocs(churned, plan));
    EXPECT_EQ(Keys(churned, churned.PlanDocs(plan, &churned_stats)), want);
    EXPECT_EQ(Keys(fresh, fresh.PlanDocs(plan, &fresh_stats)), want);
    EXPECT_EQ(churned_stats.scanned_docs, fresh_stats.scanned_docs);
  }
}

TEST(DatabaseTest, CollectionLifecycle) {
  Database db;
  auto c1 = db.CreateCollection("dblp");
  ASSERT_TRUE(c1.ok());
  EXPECT_TRUE(db.CreateCollection("dblp").status().IsAlreadyExists());
  EXPECT_TRUE(db.CreateCollection("").status().IsInvalidArgument());
  ASSERT_TRUE(db.CreateCollection("sigmod").ok());
  EXPECT_EQ(db.CollectionNames().size(), 2u);
  ASSERT_TRUE(db.GetCollection("dblp").ok());
  EXPECT_TRUE(db.GetCollection("none").status().IsNotFound());
  ASSERT_TRUE(db.DropCollection("dblp").ok());
  EXPECT_TRUE(db.DropCollection("dblp").IsNotFound());
  EXPECT_EQ(db.collection_count(), 1u);
}

TEST(DatabaseTest, SaveOpenRoundTrip) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "toss_store_test";
  fs::remove_all(dir);

  Database db;
  auto coll = db.CreateCollection("dblp");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)
                  ->InsertXml("p1",
                              "<inproceedings gtid=\"10001\">"
                              "<author>A &amp; B</author>"
                              "</inproceedings>")
                  .ok());
  ASSERT_TRUE((*coll)->InsertXml("weird key / with : chars", "<x/>").ok());
  auto coll2 = db.CreateCollection("sigmod");
  ASSERT_TRUE(coll2.ok());
  ASSERT_TRUE((*coll2)->InsertXml("page", "<proceedingsPage/>").ok());

  ASSERT_TRUE(db.Save(dir.string()).ok());

  auto reopened = Database::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->CollectionNames(), db.CollectionNames());
  auto rc = reopened->GetCollection("dblp");
  ASSERT_TRUE(rc.ok());
  EXPECT_EQ((*rc)->size(), 2u);
  ASSERT_TRUE((*rc)->FindKey("weird key / with : chars").ok());
  // Content and attributes survived.
  auto p1 = (*rc)->FindKey("p1");
  ASSERT_TRUE(p1.ok());
  const xml::XmlDocument& doc = (*rc)->document(*p1);
  EXPECT_EQ(doc.node(doc.root()).tag, "inproceedings");
  EXPECT_EQ(doc.Attribute(doc.root(), "gtid"), "10001");
  EXPECT_EQ((*rc)->PlanDocs({ValueStep("author", "A & B")}),
            (std::vector<DocId>{*p1}));

  fs::remove_all(dir);
}

TEST(DatabaseTest, SaveOpenRoundTripHostileKeys) {
  // Regression for the pre-generational _keys.txt format, which stored
  // keys one-per-line unescaped: a key containing a newline silently split
  // into two, and path separators had to be special-cased. The manifest
  // escapes keys, so arbitrary bytes round-trip.
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "toss_store_hostile_keys";
  fs::remove_all(dir);

  Database db;
  auto coll = db.CreateCollection("k");
  ASSERT_TRUE(coll.ok());
  const std::string keys[] = {
      "two\nlines",
      "../escape/../../attempt",
      "C:\\windows\\style",
      "percent%00%0Atricks",
      "trailing space ",
  };
  for (const std::string& key : keys) {
    ASSERT_TRUE((*coll)->InsertXml(key, "<doc/>").ok()) << key;
  }
  ASSERT_TRUE(db.Save(dir.string()).ok());

  auto reopened = Database::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto rc = reopened->GetCollection("k");
  ASSERT_TRUE(rc.ok());
  ASSERT_EQ((*rc)->size(), 5u);
  for (const std::string& key : keys) {
    EXPECT_TRUE((*rc)->FindKey(key).ok()) << key;
  }
  // Insertion order survived, so DocIds line up too.
  size_t i = 0;
  for (DocId id : (*rc)->AllDocs()) {
    EXPECT_EQ((*rc)->key(id), keys[i++]);
  }

  fs::remove_all(dir);
}

TEST(DatabaseTest, OpenMissingDirectoryFails) {
  auto r = Database::Open("/nonexistent/toss/db/dir");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

}  // namespace
}  // namespace toss::store
