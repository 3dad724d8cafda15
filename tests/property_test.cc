// Randomized property tests across module boundaries: serialization round
// trips, algebraic invariants, and Def. 8 verification of SEA on random
// inputs. Seeds are fixed, so failures are reproducible.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "core/query_language.h"
#include "ontology/hierarchy_io.h"
#include "ontology/sea.h"
#include "sim/measure_registry.h"
#include "tax/condition_parser.h"
#include "tax/operators.h"
#include "tax/tax_semantics.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace toss {
namespace {

// ---------------------------------------------------------------------------
// Random generators
// ---------------------------------------------------------------------------

tax::DataTree RandomTree(Random* rng, size_t max_nodes) {
  tax::DataTree t;
  const char* tags[] = {"a", "b", "c", "item", "name"};
  auto tag = [&] { return tags[rng->Uniform(std::size(tags))]; };
  auto content = [&] {
    // Mix of empty, plain, and escape-needing content.
    switch (rng->Uniform(4)) {
      case 0:
        return std::string();
      case 1:
        return rng->AlphaString(1 + rng->Uniform(8));
      case 2:
        return "x<&>\"y" + rng->AlphaString(2);
      default:
        return "multi word " + rng->AlphaString(3);
    }
  };
  tax::NodeId root = t.CreateRoot(tag(), content());
  (void)root;
  size_t n = 1 + rng->Uniform(max_nodes);
  for (size_t i = 1; i < n; ++i) {
    tax::NodeId parent = static_cast<tax::NodeId>(rng->Uniform(t.size()));
    t.AppendChild(parent, tag(), content());
  }
  return t;
}

ontology::Hierarchy RandomOrderedHierarchy(Random* rng, size_t n) {
  ontology::Hierarchy h;
  for (size_t i = 0; i < n; ++i) {
    std::string term = rng->AlphaString(4 + rng->Uniform(8));
    if (i % 3 == 2) {
      // Near-duplicate of the previous term to exercise grouping.
      term = h.terms(static_cast<ontology::HNodeId>(i - 1))[0];
      term[rng->Uniform(term.size())] = 'q';
    }
    h.AddNode({term});
    if (i > 0 && rng->Bernoulli(0.4)) {
      (void)h.AddEdge(static_cast<ontology::HNodeId>(i),
                      static_cast<ontology::HNodeId>(rng->Uniform(i)));
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// XML round trips
// ---------------------------------------------------------------------------

TEST(PropertyTest, DataTreeXmlWriteParseRoundTrip) {
  Random rng(1001);
  for (int trial = 0; trial < 100; ++trial) {
    tax::DataTree original = RandomTree(&rng, 20);
    // Annotate some provenance to verify it survives.
    original.node(0).provenance = 10000 + trial;
    xml::XmlDocument doc = original.ToXml();
    std::string text = xml::Write(doc);
    auto reparsed = xml::Parse(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
    tax::DataTree back = tax::DataTree::FromXml(*reparsed,
                                                reparsed->root());
    EXPECT_TRUE(back.Equals(original)) << text;
    EXPECT_EQ(back.node(0).provenance, original.node(0).provenance);
  }
}

TEST(PropertyTest, PrettyPrintingPreservesContent) {
  Random rng(1002);
  for (int trial = 0; trial < 50; ++trial) {
    tax::DataTree original = RandomTree(&rng, 12);
    xml::WriteOptions pretty;
    pretty.pretty = true;
    std::string text = xml::Write(original.ToXml(), pretty);
    auto reparsed = xml::Parse(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
    // Pretty-printing may move whitespace, but element structure and
    // non-whitespace text survive. Compare canonical keys after rebuilding
    // both trees in preorder (RandomTree ids are not preorder) and
    // trimming content.
    auto normalize = [](const tax::DataTree& t) {
      tax::DataTree copy;
      copy.CopySubtree(t, t.root(), tax::kInvalidNode);
      for (tax::NodeId v = 0; v < copy.size(); ++v) {
        copy.node(v).content = std::string(Trim(copy.node(v).content));
      }
      return copy.CanonicalKey();
    };
    tax::DataTree back = tax::DataTree::FromXml(*reparsed,
                                                reparsed->root());
    ASSERT_EQ(back.size(), original.size());
    EXPECT_EQ(normalize(back), normalize(original)) << text;
  }
}

// ---------------------------------------------------------------------------
// Hierarchy / ontology round trips
// ---------------------------------------------------------------------------

TEST(PropertyTest, HierarchyDumpRoundTrip) {
  Random rng(1003);
  for (int trial = 0; trial < 50; ++trial) {
    ontology::Hierarchy h = RandomOrderedHierarchy(&rng, 15);
    auto parsed = ontology::ParseHierarchyText(FormatHierarchy(h));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    // Same node count, same reachability everywhere.
    ASSERT_EQ(parsed->node_count(), h.node_count());
    for (ontology::HNodeId a = 0; a < h.node_count(); ++a) {
      for (ontology::HNodeId b = 0; b < h.node_count(); ++b) {
        EXPECT_EQ(parsed->Leq(a, b), h.Leq(a, b));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SEA on random hierarchies (Theorem 2)
// ---------------------------------------------------------------------------

TEST(PropertyTest, StrictSeaOutputVerifiesOnRandomHierarchies) {
  // Strict mode enforces all of Def. 8, so whenever it succeeds the output
  // must pass the independent VerifyEnhancement check (Theorem 2). The
  // paper's acyclicity-only check is looser by design -- see sea.h.
  Random rng(1004);
  auto lev = *sim::MakeMeasure("levenshtein");
  ontology::SeaOptions strict;
  strict.strict = true;
  size_t consistent = 0, inconsistent = 0;

  // Strict mode only accepts groupings whose members are order-equivalent,
  // so consistent inputs are built from "groups": each group holds 1-2
  // near-duplicate terms sharing identical edges to parent groups.
  auto parallel_hierarchy = [&](size_t groups) {
    ontology::Hierarchy h;
    std::vector<std::vector<ontology::HNodeId>> members;
    for (size_t g = 0; g < groups; ++g) {
      std::string base = rng.AlphaString(6 + rng.Uniform(4));
      std::vector<ontology::HNodeId> ids{h.AddNode({base})};
      if (rng.Bernoulli(0.4)) {
        std::string dup = base;
        dup[rng.Uniform(dup.size())] = 'q';
        ids.push_back(h.AddNode({dup}));
      }
      if (g > 0 && rng.Bernoulli(0.6)) {
        size_t parent = rng.Uniform(g);
        for (ontology::HNodeId child : ids) {
          for (ontology::HNodeId up : members[parent]) {
            EXPECT_TRUE(h.AddEdge(child, up).ok());
          }
        }
      }
      members.push_back(std::move(ids));
    }
    return h;
  };

  for (int trial = 0; trial < 40; ++trial) {
    // Parallel-group inputs: strict SEA should mostly succeed and its
    // output must satisfy Def. 8 in full.
    ontology::Hierarchy parallel = parallel_hierarchy(8);
    // Asymmetric inputs: strict SEA usually rejects; when it accepts, the
    // output must still verify.
    ontology::Hierarchy asymmetric = RandomOrderedHierarchy(&rng, 12);
    for (const auto* h : {&parallel, &asymmetric}) {
      for (double eps : {1.0, 2.0}) {
        auto r = ontology::SimilarityEnhance(*h, *lev, eps, strict);
        if (!r.ok()) {
          EXPECT_TRUE(r.status().IsInconsistent()) << r.status();
          ++inconsistent;
          continue;
        }
        ++consistent;
        Status v = ontology::VerifyEnhancement(*h, *lev, eps, *r);
        EXPECT_TRUE(v.ok()) << v;
      }
    }
  }
  // Both outcomes must actually occur for the test to mean anything.
  EXPECT_GT(consistent, 10u);
  EXPECT_GT(inconsistent, 0u);
}

TEST(PropertyTest, LaxSeaAlwaysAcyclicAndCoversEveryNode) {
  // Paper-mode SEA guarantees less (see above) but must still return an
  // acyclic, transitively reduced hierarchy with total mu.
  Random rng(1014);
  auto lev = *sim::MakeMeasure("levenshtein");
  for (int trial = 0; trial < 40; ++trial) {
    ontology::Hierarchy h = RandomOrderedHierarchy(&rng, 12);
    auto r = ontology::SimilarityEnhance(h, *lev, 2.0);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsInconsistent());
      continue;
    }
    EXPECT_TRUE(r->enhanced.IsAcyclic());
    EXPECT_TRUE(r->enhanced.IsTransitivelyReduced());
    ASSERT_EQ(r->mu.size(), h.node_count());
    for (const auto& targets : r->mu) {
      EXPECT_FALSE(targets.empty());
    }
  }
}

TEST(PropertyTest, SeaIdentityAtZeroEpsilonOnReducedHierarchies) {
  Random rng(1005);
  auto lev = *sim::MakeMeasure("levenshtein");
  for (int trial = 0; trial < 25; ++trial) {
    ontology::Hierarchy h = RandomOrderedHierarchy(&rng, 10);
    ASSERT_TRUE(h.TransitiveReduction().ok());
    // Distinct node terms can coincide (near-duplicates with 'q'); only
    // all-distinct hierarchies enhance to themselves at eps=0.
    std::set<std::string> terms;
    bool distinct = true;
    for (ontology::HNodeId v = 0; v < h.node_count(); ++v) {
      if (!terms.insert(h.terms(v)[0]).second) distinct = false;
    }
    if (!distinct) continue;
    auto r = ontology::SimilarityEnhance(h, *lev, 0.0);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r->enhanced.EquivalentTo(h));
  }
}

// ---------------------------------------------------------------------------
// Algebraic invariants on random trees
// ---------------------------------------------------------------------------

TEST(PropertyTest, SetOperationLaws) {
  Random rng(1006);
  for (int trial = 0; trial < 25; ++trial) {
    tax::TreeCollection a, b;
    for (int i = 0; i < 6; ++i) a.push_back(RandomTree(&rng, 6));
    for (int i = 0; i < 4; ++i) b.push_back(RandomTree(&rng, 6));
    // Seed some intentional overlap.
    if (!a.empty()) b.push_back(a[0]);

    auto u = Union(a, b);
    auto i = Intersect(a, b);
    auto d_ab = Difference(a, b);
    auto d_ba = Difference(b, a);
    // |A ∪ B| = |A\B| + |B\A| + |A ∩ B| (set semantics).
    EXPECT_EQ(u.size(), d_ab.size() + d_ba.size() + i.size());
    // Union is idempotent and commutative in content.
    EXPECT_EQ(Union(u, u).size(), u.size());
    EXPECT_EQ(Union(b, a).size(), u.size());
    // Intersection is contained in both.
    EXPECT_LE(i.size(), Union(a, {}).size());
    EXPECT_LE(i.size(), Union(b, {}).size());
  }
}

TEST(PropertyTest, ProductCardinality) {
  Random rng(1007);
  for (int trial = 0; trial < 10; ++trial) {
    tax::TreeCollection a, b;
    size_t na = rng.Uniform(5), nb = rng.Uniform(5);
    for (size_t i = 0; i < na; ++i) a.push_back(RandomTree(&rng, 4));
    for (size_t i = 0; i < nb; ++i) b.push_back(RandomTree(&rng, 4));
    EXPECT_EQ(Product(a, b).size(), na * nb);
  }
}

TEST(PropertyTest, SelectWithTrueConditionFindsEveryNodeOnce) {
  // A single-node pattern with condition `true` has one embedding per data
  // node; with SL={1} each witness is the node's whole subtree.
  Random rng(1008);
  tax::TaxSemantics sem;
  tax::PatternTree pattern;
  pattern.AddRoot();
  pattern.SetCondition(tax::Condition::True());
  for (int trial = 0; trial < 20; ++trial) {
    tax::DataTree t = RandomTree(&rng, 10);
    auto r = tax::Select({t}, pattern, {1}, sem);
    ASSERT_TRUE(r.ok());
    // At most one witness per node (exact when all subtrees distinct).
    EXPECT_LE(r->size(), t.size());
    EXPECT_GE(r->size(), 1u);
    // The full tree itself is among the witnesses.
    bool found = false;
    for (const auto& w : *r) {
      if (w.Equals(t)) found = true;
    }
    EXPECT_TRUE(found);
  }
}

// ---------------------------------------------------------------------------
// Fuzzing: hostile inputs must error, never crash
// ---------------------------------------------------------------------------

TEST(PropertyTest, XmlParserSurvivesRandomBytes) {
  Random rng(1010);
  const char kAlphabet[] = "<>/=\"'&;ab \n\t![]-?";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string input;
    size_t len = rng.Uniform(60);
    for (size_t i = 0; i < len; ++i) {
      input += kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
    }
    auto r = xml::Parse(input);  // must not crash or hang
    if (r.ok()) {
      // Whatever parsed must serialize and re-parse.
      auto again = xml::Parse(xml::Write(*r));
      EXPECT_TRUE(again.ok()) << input;
    }
  }
}

TEST(PropertyTest, XmlParserSurvivesMutatedValidDocuments) {
  Random rng(1011);
  const std::string valid =
      "<dblp><inproceedings key=\"a\"><author>J. Ullman</author>"
      "<title>T &amp; U</title></inproceedings></dblp>";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = valid;
    size_t n_mutations = 1 + rng.Uniform(4);
    for (size_t m = 0; m < n_mutations; ++m) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.Uniform(128));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1,
                         static_cast<char>('!' + rng.Uniform(90)));
          break;
      }
      if (mutated.empty()) break;
    }
    (void)xml::Parse(mutated);  // outcome irrelevant; crashing is failure
  }
}

TEST(PropertyTest, ParsersSurviveRandomQueryInput) {
  Random rng(1012);
  const char kAlphabet[] = "$12.tagcontent=\"'~&|!()<>i sabelowpart_of/,*";
  // Whole TOSS-QL keywords, so random text reaches past the statement
  // head into the MATCH / WHERE / GROUP BY / set-operator grammar.
  const std::vector<std::string> kKeywords = {
      "SELECT ", "FROM ", "WHERE ", "JOIN ", "GROUP BY ", "PROJECT ",
      "MATCH ",  "UNION ", "INTERSECT ", "EXCEPT ", "dblp ", "$1/$2 "};
  for (int trial = 0; trial < 3000; ++trial) {
    std::string input;
    size_t len = rng.Uniform(50);
    for (size_t i = 0; i < len; ++i) {
      if (rng.Bernoulli(0.1)) {
        input += rng.Choice(kKeywords);
      } else {
        input += kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
      }
    }
    (void)tax::ParseCondition(input);
    (void)core::ParseQuery(input);
    (void)core::ParseCompoundQuery(input);
  }
}

// ---------------------------------------------------------------------------
// Condition parser round trip on random ASTs
// ---------------------------------------------------------------------------

tax::Condition RandomCondition(Random* rng, int depth) {
  using tax::CondOp;
  if (depth <= 0 || rng->Bernoulli(0.5)) {
    const CondOp ops[] = {CondOp::kEq,     CondOp::kNeq,   CondOp::kLeq,
                          CondOp::kSimilar, CondOp::kIsa,  CondOp::kBelow,
                          CondOp::kPartOf, CondOp::kInstanceOf};
    CondOp op = ops[rng->Uniform(std::size(ops))];
    tax::CondTerm lhs = rng->Bernoulli(0.5)
                            ? tax::TagOf(1 + int(rng->Uniform(4)))
                            : tax::ContentOf(1 + int(rng->Uniform(4)));
    tax::CondTerm rhs;
    switch (rng->Uniform(3)) {
      case 0:
        rhs = tax::Value(rng->AlphaString(4));
        break;
      case 1:
        rhs = tax::Value(rng->AlphaString(3), "year");
        break;
      default:
        rhs = tax::TypeName(rng->AlphaString(4));
        break;
    }
    return tax::Condition::Atom(std::move(lhs), op, std::move(rhs));
  }
  switch (rng->Uniform(3)) {
    case 0:
      return tax::Condition::And(
          {RandomCondition(rng, depth - 1), RandomCondition(rng, depth - 1)});
    case 1:
      return tax::Condition::Or(
          {RandomCondition(rng, depth - 1), RandomCondition(rng, depth - 1)});
    default:
      return tax::Condition::Not(RandomCondition(rng, depth - 1));
  }
}

TEST(PropertyTest, ConditionToStringParsesBack) {
  Random rng(1009);
  for (int trial = 0; trial < 200; ++trial) {
    tax::Condition c = RandomCondition(&rng, 3);
    std::string text = c.ToString();
    auto parsed = tax::ParseCondition(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    EXPECT_EQ(parsed->ToString(), text);
  }
}

}  // namespace
}  // namespace toss
