#include <gtest/gtest.h>

#include <filesystem>

#include "data/bulk_loader.h"

namespace toss::data {
namespace {

namespace fs = std::filesystem;

TEST(BulkLoaderTest, SplitsDumpIntoDocuments) {
  store::Database db;
  auto stats = BulkLoadXml(&db, "dblp", R"(
    <dblp>
      <inproceedings key="conf/sigmod/Ullman99">
        <author>Jeffrey Ullman</author><title>A</title>
      </inproceedings>
      <inproceedings key="conf/vldb/Widom00">
        <author>Jennifer Widom</author><title>B</title>
      </inproceedings>
      <article><author>X</author></article>
    </dblp>)");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->records, 3u);
  EXPECT_EQ(stats->root_tag, "dblp");
  auto coll = db.GetCollection("dblp");
  ASSERT_TRUE(coll.ok());
  EXPECT_EQ((*coll)->size(), 3u);
  // DBLP-style keys are preserved.
  EXPECT_TRUE((*coll)->FindKey("conf/sigmod/Ullman99").ok());
  EXPECT_TRUE((*coll)->FindKey("conf/vldb/Widom00").ok());
  // Keyless records get ordinal keys.
  EXPECT_TRUE((*coll)->FindKey("rec-2").ok());
  // Content is queryable.
  store::PlanStep widom;
  widom.tag = "author";
  widom.any_of = {{"Jennifer Widom"}};
  auto docs = (*coll)->PlanDocs({widom});
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ((*coll)->key(docs[0]), "conf/vldb/Widom00");
}

TEST(BulkLoaderTest, DuplicateKeysDisambiguated) {
  store::Database db;
  auto stats = BulkLoadXml(&db, "c",
                           "<dump><r key=\"same\"/><r key=\"same\"/></dump>");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->records, 2u);
  auto coll = db.GetCollection("c");
  ASSERT_TRUE(coll.ok());
  EXPECT_TRUE((*coll)->FindKey("same").ok());
  EXPECT_TRUE((*coll)->FindKey("same#1").ok());
}

TEST(BulkLoaderTest, MalformedDumpRejected) {
  store::Database db;
  EXPECT_TRUE(BulkLoadXml(&db, "c", "<dump><r></dump>").status()
                  .IsParseError());
  // Collection name collisions surface too.
  ASSERT_TRUE(BulkLoadXml(&db, "c", "<dump/>").ok());
  EXPECT_TRUE(
      BulkLoadXml(&db, "c", "<dump/>").status().IsAlreadyExists());
}

TEST(BulkLoaderTest, GeneratorDumpRoundTrip) {
  BibConfig cfg;
  cfg.seed = 11;
  cfg.num_papers = 25;
  BibWorld world = GenerateWorld(cfg);
  auto docs = EmitDblp(world, 0, 25, cfg);

  std::string dump = FormatAsDump(docs);
  store::Database db;
  auto stats = BulkLoadXml(&db, "dblp", dump);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->records, 25u);
  // gtid-derived keys.
  auto coll = db.GetCollection("dblp");
  ASSERT_TRUE(coll.ok());
  EXPECT_TRUE((*coll)->FindKey("rec-10000").ok());
}

TEST(BulkLoaderTest, FileRoundTrip) {
  fs::path path = fs::temp_directory_path() / "toss_bulk_test.xml";
  BibConfig cfg;
  cfg.seed = 12;
  cfg.num_papers = 10;
  BibWorld world = GenerateWorld(cfg);
  ASSERT_TRUE(WriteDumpFile(EmitDblp(world, 0, 10, cfg), path.string()).ok());

  store::Database db;
  auto stats = BulkLoadFile(&db, "dblp", path.string());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->records, 10u);
  fs::remove(path);
  EXPECT_TRUE(
      BulkLoadFile(&db, "other", path.string()).status().IsIOError());
}

}  // namespace
}  // namespace toss::data
