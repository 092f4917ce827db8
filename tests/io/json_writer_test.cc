// JsonWriter: the escape set byte by byte, printf-identical numbers, comma
// placement, and that what it writes parses back under the strict parser.
#include "io/json_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "io/json_parser.h"

namespace egp {
namespace {

std::string Quoted(std::string_view text) {
  std::string out;
  JsonWriter(&out).String(text);
  return out;
}

std::string InQuotes(std::string_view text) {
  std::string out(1, '"');
  out.append(text);
  out.push_back('"');
  return out;
}

std::string Printf(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

std::string Written(double value, int precision = 10) {
  std::string out;
  JsonWriter(&out).Double(value, precision);
  return out;
}

/// The escape set, written out independently of the writer: the five
/// named escapes, \u00xx for the rest of the C0 controls, else raw.
std::string ExpectedEscape(unsigned char c) {
  switch (c) {
    case '"':
      return "\\\"";
    case '\\':
      return "\\\\";
    case '\n':
      return "\\n";
    case '\r':
      return "\\r";
    case '\t':
      return "\\t";
    default:
      break;
  }
  if (c < 0x20) {
    char buffer[8];
    std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
    return buffer;
  }
  return std::string(1, static_cast<char>(c));
}

TEST(JsonWriterTest, EscapesExactlyTheControlQuoteAndBackslashBytes) {
  for (int byte = 0; byte < 256; ++byte) {
    const unsigned char c = static_cast<unsigned char>(byte);
    const std::string text(1, static_cast<char>(c));
    EXPECT_EQ(Quoted(text), InQuotes(ExpectedEscape(c))) << byte;
    if (c < 0x80) {  // a lone byte >= 0x80 is not UTF-8, so not JSON
      const auto parsed = ParseJson(Quoted(text));
      ASSERT_TRUE(parsed.ok()) << byte << ": " << parsed.status().ToString();
      EXPECT_EQ(parsed->string_value(), text) << byte;
    }
  }
  EXPECT_EQ(Quoted("\b\f\x1f"), "\"\\u0008\\u000c\\u001f\"");
  EXPECT_EQ(Quoted("\x7f"), "\"\x7f\"");
}

TEST(JsonWriterTest, PassesMultiByteUtf8ThroughRaw) {
  const std::string text = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";
  EXPECT_EQ(Quoted(text), InQuotes(text));
  const auto parsed = ParseJson(Quoted(text));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), text);
}

TEST(JsonWriterTest, EscapesAtStartMiddleAndEnd) {
  const std::pair<std::string, std::string> cases[] = {
      {"", "\"\""},
      {"\"abc", "\"\\\"abc\""},
      {"ab\ncd", "\"ab\\ncd\""},
      {"abc\\", "\"abc\\\\\""},
      {"\t", "\"\\t\""},
      {"\"\"", "\"\\\"\\\"\""},
      {"\r\x01x\x02", "\"\\r\\u0001x\\u0002\""},
      {std::string("a\0b", 3), "\"a\\u0000b\""},
  };
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(Quoted(text), want);
    const auto parsed = ParseJson(want);
    ASSERT_TRUE(parsed.ok()) << want;
    EXPECT_EQ(parsed->string_value(), text);
  }
}

TEST(JsonWriterTest, DoubleMatchesPrintfOnASeededSweep) {
  for (const double value :
       {0.0, -0.0, 5e-324, 1e-5, 1e10, 1e16, 0.1, 1.0 / 3.0, 84.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(Written(value), Printf("%.10g", value)) << value;
    EXPECT_EQ(Written(value, 6), Printf("%.6g", value)) << value;
  }
  std::mt19937_64 rng(20160626);
  size_t parsed = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t bits = rng();
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    const std::string written = Written(value);
    ASSERT_EQ(written, Printf("%.10g", value)) << "bits " << bits;
    if (i % 8 == 0) {
      ASSERT_EQ(Written(value, 6), Printf("%.6g", value)) << "bits " << bits;
    }
    if (std::isnormal(value) && i % 16 == 0) {
      const auto doc = ParseJson(written);
      ASSERT_TRUE(doc.ok()) << written;
      EXPECT_EQ(doc->number_value(), std::strtod(written.c_str(), nullptr));
      ++parsed;
    }
  }
  EXPECT_GT(parsed, 50'000u);
}

TEST(JsonWriterTest, IntegersAtTheirLimits) {
  std::string out;
  JsonWriter json(&out);
  json.BeginArray().Uint(0).Uint(std::numeric_limits<uint64_t>::max());
  json.Int(0).Int(-1).Int(std::numeric_limits<int64_t>::min()).EndArray();
  EXPECT_EQ(out,
            "[0,18446744073709551615,0,-1,-9223372036854775808]");
  EXPECT_TRUE(ParseJson(out).ok());
}

TEST(JsonWriterTest, PlacesCommasBetweenValuesAndMembersOnly) {
  const auto written = [](auto build) {
    std::string out;
    JsonWriter json(&out);
    build(json);
    EXPECT_TRUE(ParseJson(out).ok()) << out;
    return out;
  };
  EXPECT_EQ(written([](JsonWriter& j) { j.BeginObject().EndObject(); }),
            "{}");
  EXPECT_EQ(written([](JsonWriter& j) { j.BeginArray().EndArray(); }), "[]");
  EXPECT_EQ(written([](JsonWriter& j) {
              j.BeginArray();
              for (int i = 0; i < 3; ++i) j.BeginArray().EndArray();
              j.EndArray();
            }),
            "[[],[],[]]");
  EXPECT_EQ(written([](JsonWriter& j) {
              j.BeginObject().Key("a").BeginObject().EndObject();
              j.Key("b").BeginArray().EndArray();
              j.Key("c").BeginArray().BeginObject().EndObject();
              j.BeginObject().Key("d").Bool(false).EndObject().EndArray();
              j.Key("").String("").Key("e").Bool(true).EndObject();
            }),
            R"({"a":{},"b":[],"c":[{},{"d":false}],"":"","e":true})");
  EXPECT_EQ(written([](JsonWriter& j) {
              j.BeginArray().String("x").Double(0.5).Uint(7);
              j.BeginArray().String("y").EndArray().Bool(true).EndArray();
            }),
            R"(["x",0.5,7,["y"],true])");
}

TEST(JsonWriterTest, KeysAreEscapedLikeStrings) {
  std::string out;
  JsonWriter(&out).BeginObject().Key("a\"b\n").Uint(1).EndObject();
  EXPECT_EQ(out, "{\"a\\\"b\\n\":1}");
  const auto doc = ParseJson(out);
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->Find("a\"b\n"), nullptr);
}

TEST(JsonWriterTest, AppendsAfterExistingBytesWithoutALeadingComma) {
  std::string out = "data: ";
  JsonWriter(&out).BeginObject().Key("k").Uint(2).EndObject();
  EXPECT_EQ(out, "data: {\"k\":2}");
  out += "\n";
  JsonWriter(&out).String("next");
  EXPECT_EQ(out, "data: {\"k\":2}\n\"next\"");
}

}  // namespace
}  // namespace egp
