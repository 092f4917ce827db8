#include "io/ntriples.h"

#include <gtest/gtest.h>

#include <sstream>

#include "tests/testing/reference_graph.h"

namespace egp {
namespace {

TEST(NTriplesTest, BasicTriples) {
  std::stringstream in(
      "<Will Smith> <a> <FILM ACTOR> .\n"
      "<Men in Black> <a> <FILM> .\n"
      "<Will Smith> <Actor> <Men in Black> .\n");
  NTriplesStats stats;
  auto graph = ReadNTriples(in, &stats);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(stats.triples, 3u);
  EXPECT_EQ(stats.type_assertions, 2u);
  EXPECT_EQ(stats.relationships, 1u);
  EXPECT_EQ(graph->num_entities(), 2u);
  EXPECT_EQ(graph->num_edges(), 1u);
  EXPECT_EQ(graph->num_types(), 2u);
}

TEST(NTriplesTest, BareTokensAndRdfType) {
  std::stringstream in(
      "alice rdf:type Person .\n"
      "bob http://www.w3.org/1999/02/22-rdf-syntax-ns#type Person .\n"
      "alice knows bob .\n");
  auto graph = ReadNTriples(in);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_entities(), 2u);
  EXPECT_EQ(graph->num_edges(), 1u);
}

TEST(NTriplesTest, TypeAssertionsAfterRelationships) {
  // Relationship triples buffer until all types are known.
  std::stringstream in(
      "alice knows bob .\n"
      "alice a Person .\n"
      "bob a Person .\n");
  auto graph = ReadNTriples(in);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 1u);
}

TEST(NTriplesTest, UntypedEndpointsSkipped) {
  std::stringstream in(
      "alice a Person .\n"
      "alice knows ghost .\n");
  NTriplesStats stats;
  auto graph = ReadNTriples(in, &stats);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(stats.skipped_untyped, 1u);
  EXPECT_EQ(graph->num_edges(), 0u);
}

TEST(NTriplesTest, PrimaryTypeDeterminesRelType) {
  // "actor" asserted first for will → the Acted In relationship type is
  // (Acted In, ACTOR, FILM) even though will is also a PRODUCER.
  std::stringstream in(
      "will a ACTOR .\n"
      "will a PRODUCER .\n"
      "mib a FILM .\n"
      "will <Acted In> mib .\n");
  auto graph = ReadNTriples(in);
  ASSERT_TRUE(graph.ok());
  ASSERT_EQ(graph->num_rel_types(), 1u);
  const RelTypeInfo& info = graph->RelType(0);
  EXPECT_EQ(graph->TypeName(info.src_type), "ACTOR");
  EXPECT_EQ(graph->TypeName(info.dst_type), "FILM");
}

TEST(NTriplesTest, QuotedLiteralsAsNames) {
  std::stringstream in(
      "\"The Matrix\" a FILM .\n"
      "keanu a ACTOR .\n"
      "keanu starred \"The Matrix\" .\n");
  auto graph = ReadNTriples(in);
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph->entity_names().Find("The Matrix").has_value());
}

TEST(NTriplesTest, CommentsAndBlanksIgnored) {
  std::stringstream in(
      "# header\n"
      "\n"
      "x a T .\n");
  auto graph = ReadNTriples(in);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_entities(), 1u);
}

TEST(NTriplesTest, MalformedLineRejected) {
  {
    std::stringstream in("only two .\n");
    EXPECT_EQ(ReadNTriples(in).status().code(), StatusCode::kCorruption);
  }
  {
    std::stringstream in("<unterminated bracket .\n");
    EXPECT_EQ(ReadNTriples(in).status().code(), StatusCode::kCorruption);
  }
  {
    std::stringstream in("a b c d e .\n");
    EXPECT_EQ(ReadNTriples(in).status().code(), StatusCode::kCorruption);
  }
}

TEST(NTriplesTest, ErrorMentionsLineNumber) {
  std::stringstream in("x a T .\nbroken\n");
  const auto result = ReadNTriples(in);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(NTriplesTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadNTriplesFile("/no/such/file.nt").status().code(),
            StatusCode::kIOError);
}

TEST(NTriplesTest, EscapeSequencesInLiterals) {
  std::stringstream in(
      "\"Tab\\there\" a T .\n"
      "\"quote \\\" backslash \\\\ newline \\n\" a T .\n"
      "\"uni \\u00E9 astral \\U0001F600\" a T .\n");
  auto graph = ReadNTriples(in);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(graph->entity_names().Find("Tab\there").has_value());
  EXPECT_TRUE(graph->entity_names()
                  .Find("quote \" backslash \\ newline \n")
                  .has_value());
  EXPECT_TRUE(graph->entity_names()
                  .Find("uni \xC3\xA9 astral \xF0\x9F\x98\x80")
                  .has_value());
}

TEST(NTriplesTest, InvalidEscapesRejectedWithOffset) {
  {
    // \q is not in the escape set; its backslash sits at column 8.
    std::stringstream in("\"abcdef\\q\" a T .\n");
    const auto result = ReadNTriples(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    EXPECT_NE(result.status().message().find("line 1, col 8"),
              std::string::npos)
        << result.status().message();
    EXPECT_NE(result.status().message().find("escape"), std::string::npos);
  }
  {
    std::stringstream in("\"bad \\uZZZZ\" a T .\n");
    EXPECT_FALSE(ReadNTriples(in).ok());
  }
  {
    std::stringstream in("\"surrogate \\uD800\" a T .\n");
    EXPECT_FALSE(ReadNTriples(in).ok());
  }
  {
    std::stringstream in("\"trunc \\u12\" a T .\n");
    EXPECT_FALSE(ReadNTriples(in).ok());
  }
  {
    std::stringstream in("\"dangling \\");
    EXPECT_FALSE(ReadNTriples(in).ok());
  }
}

TEST(NTriplesTest, EscapedQuoteDoesNotTerminateLiteral) {
  std::stringstream in(
      "\"say \\\"hi\\\"\" a T .\n"
      "x a T .\n"
      "x knows \"say \\\"hi\\\"\" .\n");
  auto graph = ReadNTriples(in);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_edges(), 1u);
  EXPECT_TRUE(graph->entity_names().Find("say \"hi\"").has_value());
}

TEST(NTriplesTest, CrlfLineEndings) {
  std::stringstream in(
      "x a T .\r\n"
      "y a T .\r\n"
      "x rel y .\r\n");
  NTriplesStats stats;
  auto graph = ReadNTriples(in, &stats);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(stats.triples, 3u);
  EXPECT_EQ(graph->num_edges(), 1u);
  // No stray \r in any interned name.
  EXPECT_TRUE(graph->entity_names().Find("y").has_value());
  EXPECT_FALSE(graph->entity_names().Find("y\r").has_value());
}

TEST(NTriplesTest, TrailingCommentsAndBlankVariants) {
  std::stringstream in(
      "x a T . # trailing comment\n"
      "   \t  \n"
      "# full-line comment\n"
      "  # indented comment\n"
      "y a T .   #no space after hash\n"
      "x rel y .\n");
  NTriplesStats stats;
  auto graph = ReadNTriples(in, &stats);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(stats.triples, 3u);
  EXPECT_EQ(graph->num_edges(), 1u);
}

TEST(NTriplesTest, MalformedLineReportsColumnOffset) {
  // Both tokens parse; the stray fourth token starts at column 11 and
  // the error points at the position where parsing stopped.
  std::stringstream in("x a T .\nab cd ef gh .\n");
  const auto result = ReadNTriples(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("line 2, col 10"),
            std::string::npos)
      << result.status().message();
  // Leading indentation shifts the reported column accordingly.
  std::stringstream indented("   <unterminated\n");
  const auto shifted = ReadNTriples(indented);
  ASSERT_FALSE(shifted.ok());
  EXPECT_NE(shifted.status().message().find("line 1, col 4"),
            std::string::npos)
      << shifted.status().message();
}

TEST(NTriplesTest, WriterRoundTripsEscapedNames) {
  std::stringstream in(
      "\"weird > name \\\" with \\\\ stuff\\n\" a T .\n"
      "plain a T .\n"
      "plain rel \"weird > name \\\" with \\\\ stuff\\n\" .\n");
  auto graph = ReadNTriples(in);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  std::stringstream out;
  ASSERT_TRUE(WriteNTriples(*graph, out).ok());
  auto reparsed = ReadNTriples(out);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->num_entities(), graph->num_entities());
  ASSERT_EQ(reparsed->num_edges(), graph->num_edges());
  for (EntityId e = 0; e < graph->num_entities(); ++e) {
    EXPECT_EQ(reparsed->EntityName(e), graph->EntityName(e));
  }
}

TEST(NTriplesTest, DuplicatePredicatesBecomeOneRelType) {
  std::stringstream in(
      "a1 a T .\n"
      "a2 a T .\n"
      "b1 a U .\n"
      "a1 rel b1 .\n"
      "a2 rel b1 .\n");
  auto graph = ReadNTriples(in);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_rel_types(), 1u);
  EXPECT_EQ(testing_util::RelTypeEdgeCount(*graph, 0), 2u);
}

}  // namespace
}  // namespace egp
