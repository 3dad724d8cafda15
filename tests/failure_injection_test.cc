// Failure injection: corrupted on-disk state, inconsistent inputs, and
// mid-pipeline errors must surface as typed Status values, never crashes
// or silent corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/toss.h"
#include "data/bulk_loader.h"
#include "store/env.h"
#include "store/snapshot.h"

namespace toss {
namespace {

namespace fs = std::filesystem;

// Corruption tests against the generational snapshot format:
//   <dir>/CURRENT, <dir>/gen-1/MANIFEST, <dir>/gen-1/c000000/00000N.xml
class CorruptStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "toss_failure_test";
    fs::remove_all(dir_);
    store::Database db;
    auto coll = db.CreateCollection("dblp");
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->InsertXml("k1", "<a><b>x</b></a>").ok());
    ASSERT_TRUE((*coll)->InsertXml("k2", "<c/>").ok());
    ASSERT_TRUE(db.Save(dir_.string()).ok());
    doc0_ = fs::path("gen-1") / "c000000" / "000000.xml";
  }

  void TearDown() override { fs::remove_all(dir_); }

  void Overwrite(const fs::path& relative, const std::string& content) {
    std::ofstream out(dir_ / relative,
                      std::ios::trunc | std::ios::binary);
    out << content;
  }

  std::string ReadBack(const fs::path& relative) {
    auto r = store::Env::Default()->ReadFile((dir_ / relative).string());
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : std::string();
  }

  fs::path dir_;
  fs::path doc0_;
};

TEST_F(CorruptStoreTest, IntactStoreOpensWithCleanReport) {
  store::RecoveryReport report;
  auto db = store::Database::Open(dir_.string(), store::Env::Default(),
                                  &report);
  ASSERT_TRUE(db.ok()) << db.status();
  auto coll = db->GetCollection("dblp");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->size(), 2u);
  EXPECT_EQ(report.loaded_generation, "gen-1");
  EXPECT_FALSE(report.degraded());
}

TEST_F(CorruptStoreTest, MissingManifestIsIOError) {
  fs::remove(dir_ / "gen-1" / store::kManifestFileName);
  EXPECT_TRUE(store::Database::Open(dir_.string()).status().IsIOError());
}

TEST_F(CorruptStoreTest, TruncatedManifestIsRejected) {
  std::string manifest = ReadBack(fs::path("gen-1") /
                                  store::kManifestFileName);
  Overwrite(fs::path("gen-1") / store::kManifestFileName,
            manifest.substr(0, manifest.size() / 2));
  EXPECT_TRUE(store::Database::Open(dir_.string()).status().IsIOError());
}

TEST_F(CorruptStoreTest, TruncatedPayloadDetectedByByteCount) {
  std::string payload = ReadBack(doc0_);
  Overwrite(doc0_, payload.substr(0, payload.size() / 2));
  auto st = store::Database::Open(dir_.string()).status();
  ASSERT_TRUE(st.IsIOError()) << st;
  EXPECT_NE(st.message().find("truncated payload"), std::string::npos) << st;
}

TEST_F(CorruptStoreTest, ChecksumMismatchDetectedBySameLengthDamage) {
  // Same byte count, flipped content: only the CRC can catch this.
  std::string payload = ReadBack(doc0_);
  payload[payload.size() / 2] ^= 0x40;
  Overwrite(doc0_, payload);
  auto st = store::Database::Open(dir_.string()).status();
  ASSERT_TRUE(st.IsIOError()) << st;
  EXPECT_NE(st.message().find("checksum mismatch"), std::string::npos) << st;
}

TEST_F(CorruptStoreTest, MissingDocumentFile) {
  fs::remove(dir_ / "gen-1" / "c000000" / "000001.xml");
  auto db = store::Database::Open(dir_.string());
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsIOError());
}

TEST_F(CorruptStoreTest, GarbageCurrentPointerFallsBackToNewestIntactGen) {
  Overwrite(store::kCurrentFileName, "!!not a generation!!\n");
  store::RecoveryReport report;
  auto db = store::Database::Open(dir_.string(), store::Env::Default(),
                                  &report);
  ASSERT_TRUE(db.ok()) << db.status();
  auto coll = db->GetCollection("dblp");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->size(), 2u);
  EXPECT_EQ(report.loaded_generation, "gen-1");
  ASSERT_TRUE(report.degraded());
  EXPECT_EQ(report.discarded[0].generation, "CURRENT");
}

TEST_F(CorruptStoreTest, CurrentPointingToMissingGenerationFallsBack) {
  Overwrite(store::kCurrentFileName, "gen-99\n");
  store::RecoveryReport report;
  auto db = store::Database::Open(dir_.string(), store::Env::Default(),
                                  &report);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(report.loaded_generation, "gen-1");
  ASSERT_EQ(report.discarded.size(), 1u);
  EXPECT_EQ(report.discarded[0].generation, "gen-99");
}

TEST_F(CorruptStoreTest, MissingCurrentStillFindsCommittedGeneration) {
  fs::remove(dir_ / store::kCurrentFileName);
  store::RecoveryReport report;
  auto db = store::Database::Open(dir_.string(), store::Env::Default(),
                                  &report);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(report.loaded_generation, "gen-1");
}

TEST_F(CorruptStoreTest, CorruptCurrentGenDegradesToOlderIntactGeneration) {
  // Fabricate a newer committed generation, then corrupt it: Open must
  // report the discard and serve the older intact one.
  fs::copy(dir_ / "gen-1", dir_ / "gen-2", fs::copy_options::recursive);
  Overwrite(store::kCurrentFileName, "gen-2\n");
  std::string payload = ReadBack(fs::path("gen-2") / "c000000" /
                                 "000000.xml");
  payload[0] ^= 0x01;
  Overwrite(fs::path("gen-2") / "c000000" / "000000.xml", payload);

  store::RecoveryReport report;
  auto db = store::Database::Open(dir_.string(), store::Env::Default(),
                                  &report);
  ASSERT_TRUE(db.ok()) << db.status();
  auto coll = db->GetCollection("dblp");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->size(), 2u);
  EXPECT_EQ(report.loaded_generation, "gen-1");
  ASSERT_EQ(report.discarded.size(), 1u);
  EXPECT_EQ(report.discarded[0].generation, "gen-2");
  EXPECT_NE(report.discarded[0].reason.find("checksum"), std::string::npos);
}

TEST_F(CorruptStoreTest, StaleTmpGenerationIgnoredAndCleanedByNextSave) {
  // A gen-*.tmp left by a crashed save is never read by Open ...
  fs::create_directories(dir_ / "gen-7.tmp");
  Overwrite(fs::path("gen-7.tmp") / store::kManifestFileName,
            "partial garbage");
  store::RecoveryReport report;
  auto db = store::Database::Open(dir_.string(), store::Env::Default(),
                                  &report);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(report.loaded_generation, "gen-1");
  EXPECT_FALSE(report.degraded());

  // ... numbers past it, and is removed by the next Save's cleanup.
  ASSERT_TRUE(db->Save(dir_.string()).ok());
  EXPECT_FALSE(fs::exists(dir_ / "gen-7.tmp"));
  EXPECT_TRUE(fs::exists(dir_ / "gen-8"));
  EXPECT_FALSE(fs::exists(dir_ / "gen-1"));
  store::RecoveryReport after;
  auto db2 = store::Database::Open(dir_.string(), store::Env::Default(),
                                   &after);
  ASSERT_TRUE(db2.ok()) << db2.status();
  EXPECT_EQ(after.loaded_generation, "gen-8");
}

TEST_F(CorruptStoreTest, AllGenerationsCorruptIsIOErrorListingReasons) {
  std::string payload = ReadBack(doc0_);
  payload[0] ^= 0x01;
  Overwrite(doc0_, payload);
  auto st = store::Database::Open(dir_.string()).status();
  ASSERT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("no intact snapshot"), std::string::npos) << st;
  EXPECT_NE(st.message().find("gen-1"), std::string::npos) << st;
}

TEST_F(CorruptStoreTest, VersionOneGenerationIsRefusedAsUnsupported) {
  // A generation holds its MANIFEST and one directory per collection.
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(dir_ / "gen-1")) {
    entries.push_back(entry.path().filename().string());
  }
  std::sort(entries.begin(), entries.end());
  EXPECT_EQ(entries, (std::vector<std::string>{store::kManifestFileName,
                                               "c000000"}));

  // A version 1 generation (it carried a term-dictionary sidecar) is
  // refused, and Open serves the older one.
  fs::copy(dir_ / "gen-1", dir_ / "gen-2", fs::copy_options::recursive);
  Overwrite(store::kCurrentFileName, "gen-2\n");
  const fs::path manifest_path = fs::path("gen-2") / store::kManifestFileName;
  std::string manifest = ReadBack(manifest_path);
  const std::string v2 = "toss-snapshot 2\n";
  ASSERT_EQ(manifest.rfind(v2, 0), 0u) << manifest;
  manifest.replace(0, v2.size(),
                   "toss-snapshot 1\nsymbols SYMBOLS 0 0 00000000\n");
  Overwrite(manifest_path, manifest);

  store::RecoveryReport report;
  auto db = store::Database::Open(dir_.string(), store::Env::Default(),
                                  &report);
  ASSERT_TRUE(db.ok()) << db.status();
  auto coll = db->GetCollection("dblp");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->size(), 2u);
  EXPECT_EQ(report.loaded_generation, "gen-1");
  ASSERT_EQ(report.discarded.size(), 1u);
  EXPECT_EQ(report.discarded[0].generation, "gen-2");
  EXPECT_NE(report.discarded[0].reason.find("Unsupported"), std::string::npos)
      << report.discarded[0].reason;
  EXPECT_NE(report.discarded[0].reason.find("version 1"), std::string::npos)
      << report.discarded[0].reason;
}

TEST_F(CorruptStoreTest, BulkLoadThroughFaultyEnvFailsCleanly) {
  store::FaultInjectionEnv::Options opts;
  opts.fail_at_op = 0;
  store::FaultInjectionEnv fenv(store::Env::Default(), opts);
  store::Database db;
  // WriteDumpFile's write is op 0 and faults; the error is surfaced.
  EXPECT_TRUE(data::WriteDumpFile({}, (dir_ / "dump.xml").string(), "dblp",
                                  &fenv)
                  .IsIOError());
  // Crashed env: reads fail too, and BulkLoadFile propagates them.
  EXPECT_TRUE(data::BulkLoadFile(&db, "c", (dir_ / "dump.xml").string(),
                                 "rec", &fenv)
                  .status()
                  .IsIOError());
}

TEST(CorruptSeoTest, TruncatedDocumentsRejected) {
  // Build a valid SEO text and truncate it at several points; every prefix
  // must fail cleanly with ParseError (never crash).
  ontology::Ontology onto;
  (void)onto.isa().AddTermEdge("a", "b");
  core::SeoBuilder builder;
  builder.AddInstanceOntology(std::move(onto));
  builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
  builder.SetEpsilon(1.0);
  auto seo = builder.Build();
  ASSERT_TRUE(seo.ok());
  std::string full = core::FormatSeo(*seo);
  // Any prefix that ends before the first "end-enhancement" terminator
  // cannot be a complete document; such truncations must fail cleanly
  // (ParseError for structural damage, NotFound for a truncated measure
  // name -- any typed error is acceptable, crashing is not).
  size_t first_terminator = full.find("end-enhancement");
  ASSERT_NE(first_terminator, std::string::npos);
  for (size_t cut = 0; cut < first_terminator; cut += 7) {
    auto r = core::ParseSeoText(full.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "prefix of length " << cut << " parsed";
  }
  // The untruncated document parses.
  Status full_status = core::ParseSeoText(full).status();
  EXPECT_TRUE(full_status.ok()) << full_status;
}

TEST(CorruptLexiconTest, TruncatedLinesFailCleanly) {
  const char* kBroken[] = {
      "synset",          "isa",
      "isa: a",          "isa: a ->",
      "partof: -> b",    "synset: |",
  };
  for (const char* text : kBroken) {
    auto r = lexicon::ParseLexiconText(text);
    EXPECT_FALSE(r.ok()) << text;
  }
}

TEST(InconsistentPipelineTest, ContradictoryConstraintsSurface) {
  // Two sources whose constraints force a <= b and b <= a across distinct
  // nodes of the same hierarchy: fusion must fail, and SeoBuilder must
  // propagate the failure.
  ontology::Ontology o1, o2;
  (void)o1.isa().AddTermEdge("x", "y");
  o2.isa().EnsureTerm("z");
  core::SeoBuilder builder;
  builder.AddInstanceOntology(o1);
  builder.AddInstanceOntology(o2);
  builder.AddConstraints(
      ontology::kIsa,
      {ontology::Leq("y", 0, "z", 1), ontology::Leq("z", 1, "x", 0)});
  builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
  builder.SetEpsilon(0.0);
  auto seo = builder.Build();
  ASSERT_FALSE(seo.ok());
  EXPECT_TRUE(seo.status().IsInconsistent());
}

TEST(InconsistentPipelineTest, SimilarityInconsistencySurfaces) {
  // Ordered chain whose endpoints both merge with close middles: SEA
  // reports inconsistency through the builder.
  ontology::Ontology onto;
  auto& h = onto.isa();
  auto a = h.AddNode({"term1"});
  auto b = h.AddNode({"term2"});
  auto c = h.AddNode({"other1"});
  auto d = h.AddNode({"other2"});
  ASSERT_TRUE(h.AddEdge(a, c).ok());
  ASSERT_TRUE(h.AddEdge(d, b).ok());
  core::SeoBuilder builder;
  builder.AddInstanceOntology(std::move(onto));
  builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
  builder.SetEpsilon(1.0);
  auto seo = builder.Build();
  ASSERT_FALSE(seo.ok());
  EXPECT_TRUE(seo.status().IsInconsistent()) << seo.status();
}

TEST(ExecutorErrorTest, IllTypedQuerySurfacesTypeError) {
  store::Database db;
  auto coll = db.CreateCollection("c");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->InsertXml("k", "<part><width>5</width></part>").ok());

  core::TypeSystem types = core::MakeBibliographicTypeSystem();
  ASSERT_TRUE(types.AddType("color").ok());

  ontology::Ontology onto;
  onto.isa().EnsureTerm("part");
  core::SeoBuilder builder;
  builder.AddInstanceOntology(std::move(onto));
  builder.SetMeasure(*sim::MakeMeasure("levenshtein"));
  builder.SetEpsilon(0.0);
  auto seo = builder.Build();
  ASSERT_TRUE(seo.ok());

  core::QueryExecutor exec(&db, &*seo, &types);
  tax::PatternTree pt;
  int root = pt.AddRoot();
  pt.AddChild(root, tax::EdgeKind::kPc);
  pt.SetCondition(tax::ParseCondition("$1.tag = \"part\" & "
                                      "$2.tag = \"width\" & "
                                      "$2.content < \"red\":color")
                      .value());
  auto r = exec.Select("c", pt, {1}, core::QueryOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError()) << r.status();
}

TEST(BulkLoaderErrorTest, EmptyAndGarbageInputs) {
  store::Database db;
  EXPECT_TRUE(data::BulkLoadXml(&db, "a", "").status().IsParseError());
  EXPECT_TRUE(
      data::BulkLoadXml(&db, "b", "not xml at all").status().IsParseError());
  EXPECT_TRUE(data::BulkLoadFile(&db, "c", "/nonexistent/path.xml")
                  .status()
                  .IsIOError());
}

}  // namespace
}  // namespace toss
