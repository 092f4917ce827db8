// Strict JSON parser: acceptance of valid documents and rejection of the
// hostile inputs the HTTP server must survive (truncated bodies, bad
// UTF-8, duplicate keys, pathological nesting).
#include "io/json_parser.h"

#include <gtest/gtest.h>

#include <string>

#include "io/json_writer.h"

namespace egp {
namespace {

Result<JsonValue> Parse(std::string_view text) { return ParseJson(text); }

TEST(JsonParserTest, ParsesScalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_TRUE(Parse("true")->bool_value());
  EXPECT_FALSE(Parse("false")->bool_value());
  EXPECT_DOUBLE_EQ(Parse("0")->number_value(), 0.0);
  EXPECT_DOUBLE_EQ(Parse("-0.5")->number_value(), -0.5);
  EXPECT_DOUBLE_EQ(Parse("1e3")->number_value(), 1000.0);
  EXPECT_DOUBLE_EQ(Parse("2.5E-1")->number_value(), 0.25);
  EXPECT_EQ(Parse("\"hi\"")->string_value(), "hi");
  EXPECT_EQ(Parse("  \"ws\" \t\r\n")->string_value(), "ws");
}

TEST(JsonParserTest, ParsesContainersPreservingOrder) {
  const auto doc = Parse("{\"b\":[1,2,{\"c\":null}],\"a\":false}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  ASSERT_EQ(doc->object().size(), 2u);
  EXPECT_EQ(doc->object()[0].first, "b");  // insertion order, not sorted
  EXPECT_EQ(doc->object()[1].first, "a");
  const JsonValue* b = doc->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array().size(), 3u);
  EXPECT_DOUBLE_EQ(b->array()[1].number_value(), 2.0);
  EXPECT_TRUE(b->array()[2].Find("c")->is_null());
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonParserTest, DecodesEscapes) {
  const auto doc = Parse(R"("a\"b\\c\/d\b\f\n\r\t")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->string_value(), "a\"b\\c/d\b\f\n\r\t");
  EXPECT_EQ(Parse(R"("\u0041")")->string_value(), "A");
  EXPECT_EQ(Parse(R"("\u00e9")")->string_value(), "\xc3\xa9");     // e-acute
  EXPECT_EQ(Parse(R"("\u20ac")")->string_value(), "\xe2\x82\xac");  // euro sign
  // Surrogate pair decodes to U+1F600.
  EXPECT_EQ(Parse(R"("\ud83d\ude00")")->string_value(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParserTest, AcceptsRawUtf8) {
  EXPECT_EQ(Parse("\"caf\xc3\xa9\"")->string_value(), "caf\xc3\xa9");
  EXPECT_EQ(Parse("\"\xf0\x9f\x98\x80\"")->string_value(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParserTest, RoundTripsExportEscaping) {
  // What JsonWriter writes, json_parser reads back verbatim.
  const std::string original = "quote\" slash\\ tab\t newline\n bell\x07";
  std::string json;
  JsonWriter(&json).String(original);
  const auto doc = Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->string_value(), original);
}

TEST(JsonParserTest, RejectsTruncatedBodies) {
  // Every proper prefix of a valid document must fail, never crash — the
  // shape of a request cut off mid-flight.
  const std::string valid =
      R"({"k":2,"measures":{"key":"coverage"},"list":[1,2.5e-1,"xA"]})";
  ASSERT_TRUE(Parse(valid).ok());
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(Parse(valid.substr(0, len)).ok())
        << "prefix of length " << len << " unexpectedly parsed";
  }
}

TEST(JsonParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parse("{} {}").ok());
  EXPECT_FALSE(Parse("1 2").ok());
  EXPECT_FALSE(Parse("null x").ok());
  EXPECT_FALSE(Parse("\"a\"\"b\"").ok());
}

TEST(JsonParserTest, RejectsMalformedNumbers) {
  for (const char* bad :
       {"01", "+1", ".5", "1.", "1e", "1e+", "-", "--1", "0x10", "NaN",
        "Infinity", "1.2.3", "1e99999"}) {
    EXPECT_FALSE(Parse(bad).ok()) << bad;
  }
}

TEST(JsonParserTest, RejectsBadUtf8) {
  // Stray continuation byte, truncated 2-byte and 4-byte sequences,
  // overlong '/', raw surrogate, out-of-range code point, 0xFF.
  for (const std::string& bad :
       {std::string("\"\x80\""), std::string("\"\xc3\""),
        std::string("\"\xf0\x9f\x98\""), std::string("\"\xc0\xaf\""),
        std::string("\"\xed\xa0\x80\""), std::string("\"\xf4\x90\x80\x80\""),
        std::string("\"\xff\"")}) {
    EXPECT_FALSE(Parse(bad).ok()) << "accepted invalid UTF-8";
  }
}

TEST(JsonParserTest, RejectsBadEscapes) {
  for (const char* bad :
       {R"("\x41")", R"("\u00g1")", R"("\u12")", R"("\")", R"("\q")",
        // Unpaired / misordered surrogates.
        R"("\ud83d")", R"("\ud83dA")", R"("\ude00")",
        R"("\ud83dx")"}) {
    EXPECT_FALSE(Parse(bad).ok()) << bad;
  }
}

TEST(JsonParserTest, RejectsUnescapedControlCharacters) {
  using namespace std::string_literals;
  EXPECT_FALSE(Parse("\"a\nb\"").ok());
  EXPECT_FALSE(Parse("\"a\0b\""s).ok());  // embedded NUL
  EXPECT_FALSE(Parse("\"a\x1f\"").ok());
}

TEST(JsonParserTest, RejectsDuplicateKeysByDefault) {
  const std::string doc = R"({"k":1,"k":2})";
  const auto strict = Parse(doc);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("duplicate"), std::string::npos);

  JsonParseOptions lax;
  lax.reject_duplicate_keys = false;
  const auto parsed = ParseJson(doc, lax);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->object().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->Find("k")->number_value(), 1.0);  // first wins
}

TEST(JsonParserTest, EnforcesDepthLimit) {
  JsonParseOptions options;
  options.max_depth = 8;
  std::string nested;  // 9 levels: one past the limit
  for (int i = 0; i < 9; ++i) nested += "[";
  for (int i = 0; i < 9; ++i) nested += "]";
  EXPECT_FALSE(ParseJson(nested, options).ok()) << "depth 9 vs limit 8";
  std::string ok = nested.substr(1, nested.size() - 2);  // exactly 8: fine
  EXPECT_TRUE(ParseJson(ok, options).ok());

  // A pathological 100k-bracket body must be rejected cheaply, not
  // overflow the stack (the default limit applies).
  std::string hostile(100000, '[');
  EXPECT_FALSE(Parse(hostile).ok());
  std::string hostile_obj;
  for (int i = 0; i < 50000; ++i) hostile_obj += "{\"a\":";
  EXPECT_FALSE(Parse(hostile_obj).ok());
}

TEST(JsonParserTest, RejectsStructuralNoise) {
  for (const char* bad :
       {"", "   ", "{", "}", "[", "]", "{\"a\"}", "{\"a\":}", "{\"a\":1,}",
        "[1,]", "[,1]", "{,}", "{1:2}", "{\"a\":1 \"b\":2}", "[1 2]",
        "tru", "nul", "falsee", "'single'", "{\"a\":1}}"}) {
    EXPECT_FALSE(Parse(bad).ok()) << "'" << bad << "'";
  }
}

TEST(JsonParserTest, ErrorsCarryByteOffsets) {
  const auto status = Parse("{\"a\": nope}").status();
  EXPECT_NE(status.message().find("byte 6"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace egp
