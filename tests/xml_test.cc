#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "xml/xml_document.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace toss::xml {
namespace {

TEST(XmlDocumentTest, BuildAndInspect) {
  XmlDocument doc;
  NodeId root = doc.CreateRoot("inproceedings");
  NodeId author = doc.AppendTextElement(root, "author", "J. Ullman");
  doc.AppendTextElement(root, "title", "A Paper");
  doc.SetAttribute(author, "gtid", "1001");

  EXPECT_EQ(doc.node(root).tag, "inproceedings");
  EXPECT_EQ(doc.TextContent(author), "J. Ullman");
  EXPECT_EQ(doc.Attribute(author, "gtid"), "1001");
  EXPECT_EQ(doc.Attribute(author, "missing"), "");
  EXPECT_EQ(doc.ElementChildren(root).size(), 2u);
  EXPECT_EQ(doc.ChildrenByTag(root, "author").size(), 1u);
  EXPECT_EQ(doc.FirstChildByTag(root, "title"),
            doc.ElementChildren(root)[1]);
  EXPECT_EQ(doc.FirstChildByTag(root, "none"), kInvalidNode);
  EXPECT_TRUE(doc.IsAncestor(root, author));
  EXPECT_FALSE(doc.IsAncestor(author, root));
  EXPECT_EQ(doc.Depth(root), 0);
  EXPECT_EQ(doc.Depth(author), 1);
}

TEST(XmlDocumentTest, SetAttributeOverwrites) {
  XmlDocument doc;
  NodeId root = doc.CreateRoot("r");
  doc.SetAttribute(root, "k", "v1");
  doc.SetAttribute(root, "k", "v2");
  EXPECT_EQ(doc.Attribute(root, "k"), "v2");
  EXPECT_EQ(doc.node(root).attributes.size(), 1u);
}

TEST(XmlDocumentTest, DescendantsInDocumentOrder) {
  XmlDocument doc;
  NodeId root = doc.CreateRoot("a");
  NodeId b = doc.AppendElement(root, "b");
  NodeId c = doc.AppendElement(b, "c");
  NodeId d = doc.AppendElement(root, "d");
  auto desc = doc.ElementDescendants(root);
  ASSERT_EQ(desc.size(), 3u);
  EXPECT_EQ(desc[0], b);
  EXPECT_EQ(desc[1], c);
  EXPECT_EQ(desc[2], d);
}

TEST(XmlDocumentTest, TextContentConcatenatesDescendants) {
  XmlDocument doc;
  NodeId root = doc.CreateRoot("p");
  doc.AppendText(root, "Hello ");
  NodeId em = doc.AppendElement(root, "em");
  doc.AppendText(em, "XML");
  doc.AppendText(root, " world");
  EXPECT_EQ(doc.TextContent(root), "Hello XML world");
}

TEST(XmlDocumentTest, CopySubtree) {
  XmlDocument src;
  NodeId root = src.CreateRoot("a");
  NodeId b = src.AppendTextElement(root, "b", "text");
  src.SetAttribute(b, "attr", "v");

  XmlDocument dst;
  dst.CopySubtree(src, root, kInvalidNode);
  EXPECT_EQ(Write(dst), Write(src));
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(XmlParserTest, ParsesSimpleDocument) {
  auto r = Parse("<a><b>hi</b><c x=\"1\"/></a>");
  ASSERT_TRUE(r.ok()) << r.status();
  const XmlDocument& doc = *r;
  EXPECT_EQ(doc.node(doc.root()).tag, "a");
  EXPECT_EQ(doc.ElementChildren(doc.root()).size(), 2u);
  NodeId c = doc.FirstChildByTag(doc.root(), "c");
  EXPECT_EQ(doc.Attribute(c, "x"), "1");
}

TEST(XmlParserTest, ParsesDeclarationDoctypeAndComments) {
  auto r = Parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE dblp>\n"
      "<!-- bibliographic data -->\n"
      "<dblp><!-- inner --><x/></dblp>\n"
      "<!-- trailing -->");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->node(r->root()).tag, "dblp");
}

TEST(XmlParserTest, DecodesEntities) {
  auto r = Parse("<t a=\"&quot;q&quot;\">&lt;&amp;&gt; &#65;&#x42;</t>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->TextContent(r->root()), "<&> AB");
  EXPECT_EQ(r->Attribute(r->root(), "a"), "\"q\"");
}

TEST(XmlParserTest, ParsesCdata) {
  auto r = Parse("<t><![CDATA[a <raw> & b]]></t>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->TextContent(r->root()), "a <raw> & b");
}

TEST(XmlParserTest, DropsInsignificantWhitespace) {
  auto r = Parse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->TextContent(r->root()), "xy");
}

TEST(XmlParserTest, RejectsMismatchedTags) {
  auto r = Parse("<a><b></a></b>");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(XmlParserTest, RejectsUnterminatedElement) {
  EXPECT_FALSE(Parse("<a><b>").ok());
}

TEST(XmlParserTest, RejectsTrailingContent) {
  EXPECT_FALSE(Parse("<a/><b/>").ok());
}

TEST(XmlParserTest, RejectsUnknownEntity) {
  EXPECT_FALSE(Parse("<a>&nope;</a>").ok());
}

TEST(XmlParserTest, RejectsEmptyInput) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("   \n ").ok());
}

TEST(XmlParserTest, ErrorsCarryLineNumbers) {
  auto r = Parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status();
}

TEST(XmlParserTest, AcceptsSingleQuotedAttributes) {
  auto r = Parse("<a k='v \"quoted\"'/>");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->Attribute(r->root(), "k"), "v \"quoted\"");
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

TEST(XmlWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(EscapeText("a<b>&\"c"), "a&lt;b&gt;&amp;&quot;c");
}

TEST(XmlWriterTest, EscapeTextMatchesByteAtATimeReference) {
  auto reference = [](std::string_view s) {
    std::string out;
    for (char c : s) {
      if (c == '&') {
        out += "&amp;";
      } else if (c == '<') {
        out += "&lt;";
      } else if (c == '>') {
        out += "&gt;";
      } else if (c == '"') {
        out += "&quot;";
      } else {
        out += c;
      }
    }
    return out;
  };
  // Every escape character, the JSON ones, control bytes, UTF-8 and plain
  // ASCII; some strings start or end with an escape character.
  const std::vector<std::string> pieces = {
      "&", "<", ">", "\"", "'", "\\", "\n", "\t", std::string(1, '\0'),
      "\x01", "\x7f", "\xC3\xA9", "\xF0\x9F\x98\x80", "\xFF", "a", " ", "09",
      "&amp;"};
  const std::vector<std::string> escaped = {"&", "<", ">", "\""};
  Random rng(777);
  std::vector<std::string> inputs = {"", "&", "<>", "plain"};
  for (int i = 0; i < 500; ++i) {
    std::string s;
    for (size_t n = rng.Uniform(12); n > 0; --n) s += rng.Choice(pieces);
    if (i % 5 == 0) s = rng.Choice(escaped) + s;
    if (i % 7 == 0) s += rng.Choice(escaped);
    inputs.push_back(std::move(s));
  }
  for (const std::string& s : inputs) {
    ASSERT_EQ(EscapeText(s), reference(s));
  }
}

TEST(XmlWriterTest, RoundTripsThroughParser) {
  const char* kDocs[] = {
      "<a/>",
      "<a x=\"1\" y=\"two\"><b>text</b><c/></a>",
      "<t>&lt;escaped&gt; &amp; more</t>",
      "<deep><l1><l2><l3>v</l3></l2></l1></deep>",
  };
  for (const char* text : kDocs) {
    auto first = Parse(text);
    ASSERT_TRUE(first.ok()) << first.status();
    std::string written = Write(*first);
    auto second = Parse(written);
    ASSERT_TRUE(second.ok()) << second.status() << " for " << written;
    EXPECT_EQ(Write(*second), written) << text;
  }
}

TEST(XmlWriterTest, PrettyPrintKeepsTextElementsInline) {
  auto r = Parse("<a><b>x</b></a>");
  ASSERT_TRUE(r.ok());
  WriteOptions opts;
  opts.pretty = true;
  std::string out = Write(*r, opts);
  EXPECT_NE(out.find("<b>x</b>"), std::string::npos);
  EXPECT_NE(out.find("\n"), std::string::npos);
}

TEST(XmlWriterTest, DeclarationOption) {
  auto r = Parse("<a/>");
  ASSERT_TRUE(r.ok());
  WriteOptions opts;
  opts.declaration = true;
  EXPECT_EQ(Write(*r, opts).rfind("<?xml", 0), 0u);
}

}  // namespace
}  // namespace toss::xml
