// JsonWriter: the escape set byte by byte, printf-identical numbers, comma
// placement, that what it writes parses back under the strict parser,
// and that its clean-run string path writes the bytes of the per-byte
// reference writer below on a seeded sweep.
#include "io/json_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

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

/// The writer's strings as they were written before the clean-run path:
/// every byte walked, with a push_back per quote, comma and colon. The
/// differential tests below hold JsonWriter to its bytes.
class ReferenceWriter {
 public:
  explicit ReferenceWriter(std::string* out)
      : out_(out), start_(out->size()) {}

  ReferenceWriter& BeginObject() {
    Separate();
    out_->push_back('{');
    return *this;
  }
  ReferenceWriter& BeginArray() {
    Separate();
    out_->push_back('[');
    return *this;
  }
  ReferenceWriter& Key(std::string_view key) {
    Separate();
    AppendQuoted(key);
    out_->push_back(':');
    return *this;
  }
  ReferenceWriter& String(std::string_view text) {
    Separate();
    AppendQuoted(text);
    return *this;
  }
  ReferenceWriter& Uint(uint64_t value) {
    Separate();
    out_->append(std::to_string(value));
    return *this;
  }

 private:
  void Separate() {
    if (out_->size() == start_) return;
    const char last = out_->back();
    if (last != '{' && last != '[' && last != ':') out_->push_back(',');
  }

  void AppendQuoted(std::string_view text) {
    out_->push_back('"');
    const char* run = text.data();
    const char* const end = run + text.size();
    for (const char* p = run; p != end; ++p) {
      const unsigned char c = static_cast<unsigned char>(*p);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      out_->append(run, static_cast<size_t>(p - run));
      run = p + 1;
      switch (c) {
        case '"':
          out_->append("\\\"", 2);
          break;
        case '\\':
          out_->append("\\\\", 2);
          break;
        case '\n':
          out_->append("\\n", 2);
          break;
        case '\r':
          out_->append("\\r", 2);
          break;
        case '\t':
          out_->append("\\t", 2);
          break;
        default: {
          static constexpr char kHex[] = "0123456789abcdef";
          const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                  kHex[c & 0xf]};
          out_->append(escape, sizeof(escape));
        }
      }
    }
    out_->append(run, static_cast<size_t>(end - run));
    out_->push_back('"');
  }

  std::string* out_;
  size_t start_;
};

/// The sweep's strings, seeded: for each length 0-40, a clean string,
/// and the same string with each byte 0x00-0xff put at its start, its
/// middle and its end; then multi-byte UTF-8, alone and beside escapes,
/// and strings of wholly random bytes.
std::vector<std::string> SweepStrings() {
  std::mt19937_64 rng(20261020);
  const auto clean_byte = [&rng] {
    // Printable ASCII but the quote and backslash, and 0x7f.
    for (;;) {
      const char c = static_cast<char>(0x20 + rng() % 0x60);
      if (c != '"' && c != '\\') return c;
    }
  };
  std::vector<std::string> strings;
  for (size_t length = 0; length <= 40; ++length) {
    std::string base;
    for (size_t i = 0; i < length; ++i) base.push_back(clean_byte());
    strings.push_back(base);
    if (length == 0) continue;
    for (int byte = 0; byte < 256; ++byte) {
      for (const size_t at : {size_t{0}, length / 2, length - 1}) {
        std::string text = base;
        text[at] = static_cast<char>(byte);
        strings.push_back(std::move(text));
      }
    }
  }
  const std::string utf8[] = {"\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80",
                              "\xd0\x96"};
  for (int i = 0; i < 400; ++i) {
    std::string text;
    const size_t pieces = rng() % 12;
    for (size_t p = 0; p < pieces; ++p) {
      switch (rng() % 4) {
        case 0:
          text += utf8[rng() % 4];
          break;
        case 1:
          text.push_back(clean_byte());
          break;
        case 2:
          text.push_back(static_cast<char>(rng() % 0x20));
          break;
        default:
          text.push_back(rng() % 2 == 0 ? '"' : '\\');
      }
    }
    strings.push_back(std::move(text));
  }
  for (int i = 0; i < 2000; ++i) {
    std::string text(rng() % 41, '\0');
    for (char& c : text) c = static_cast<char>(rng() % 256);
    strings.push_back(std::move(text));
  }
  return strings;
}

/// Where a string is written: right after '{', '[' or a key's ':', or
/// after a value (then it takes a comma).
enum class Context { kObject, kArray, kColon, kValue };

/// Writes `text` through Writer in `context`, as a key or a string,
/// into a string holding `prefix`; then one more value, which sees the
/// state the write left. Returns the output after the string and after
/// that value.
template <typename Writer>
std::pair<std::string, std::string> WriteIn(Context context, bool as_key,
                                            std::string_view text,
                                            const std::string& prefix) {
  std::string out = prefix;
  Writer json(&out);
  switch (context) {
    case Context::kObject:
      json.BeginObject();
      break;
    case Context::kArray:
      json.BeginArray();
      break;
    case Context::kColon:
      json.BeginObject().Key("k");
      break;
    case Context::kValue:
      json.BeginArray().Uint(1);
      break;
  }
  if (as_key) {
    json.Key(text);
  } else {
    json.String(text);
  }
  std::string after_string = out;
  json.Uint(7);
  return {std::move(after_string), std::move(out)};
}

TEST(JsonWriterTest, StringsAndKeysMatchThePerByteReferenceOnASeededSweep) {
  const std::vector<std::string> strings = SweepStrings();
  ASSERT_GT(strings.size(), 30'000u);
  size_t checked = 0;
  for (size_t i = 0; i < strings.size(); ++i) {
    const std::string& text = strings[i];
    // Every other string goes into output that already holds bytes.
    const std::string prefix = i % 2 == 0 ? "" : "data: ";
    for (const Context context : {Context::kObject, Context::kArray,
                                  Context::kColon, Context::kValue}) {
      for (const bool as_key : {false, true}) {
        const auto want =
            WriteIn<ReferenceWriter>(context, as_key, text, prefix);
        const auto got = WriteIn<JsonWriter>(context, as_key, text, prefix);
        ASSERT_EQ(got.first, want.first)
            << "string " << i << " context " << static_cast<int>(context)
            << (as_key ? " as key" : " as string");
        ASSERT_EQ(got.second, want.second)
            << "string " << i << " context " << static_cast<int>(context)
            << (as_key ? " as key" : " as string");
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, strings.size() * 8);
}

TEST(JsonWriterTest, ReserveNeverChangesTheOutput) {
  const std::vector<std::string> strings = SweepStrings();
  for (const size_t reserve : {size_t{0}, size_t{1}, size_t{7}, size_t{4096}}) {
    std::string plain = "x";
    std::string reserved = "x";
    JsonWriter a(&plain);
    JsonWriter b(&reserved);
    a.BeginArray();
    b.Reserve(reserve).BeginArray().Reserve(reserve);
    for (size_t i = 0; i + 1 < strings.size(); i += 97) {
      a.BeginObject().Key(strings[i]).String(strings[i + 1]).EndObject();
      b.Reserve(reserve).BeginObject().Reserve(reserve).Key(strings[i]);
      b.Reserve(reserve).String(strings[i + 1]).EndObject();
      ASSERT_EQ(reserved, plain) << "reserve " << reserve << " at " << i;
      EXPECT_GE(reserved.capacity(), reserved.size());
    }
    a.EndArray();
    b.EndArray().Reserve(reserve);
    EXPECT_EQ(reserved, plain) << "reserve " << reserve;
    EXPECT_EQ(reserved.size(), plain.size());
  }
  std::string out;
  JsonWriter(&out).Reserve(1000);
  EXPECT_TRUE(out.empty());
  EXPECT_GE(out.capacity(), 1000u);
}

}  // namespace
}  // namespace egp
