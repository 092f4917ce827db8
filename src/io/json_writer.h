// Append-only JSON writer on a caller-owned std::string: the one encoder
// behind every response body, export document and access-log line.
//
// The writer places the commas itself. A value or key written right
// after '{', '[' or a key's ':' (or as the first thing this writer
// writes) gets none; any other gets one. So a document is built by
// plain calls in order, with no per-level state:
//
//   std::string out;
//   JsonWriter json(&out);
//   json.BeginObject().Key("k").Uint(2).Key("tags").BeginArray();
//   for (const auto& tag : tags) json.String(tag);
//   json.EndArray().EndObject();     // {"k":2,"tags":["a","b"]}
//
// Strings escape '"', '\\', '\n', '\r', '\t' by name and every other
// byte below 0x20 as \u00xx (lowercase hex); 0x7f and bytes >= 0x80
// (UTF-8) pass through raw. A string with nothing to escape, which is
// nearly every entity name, goes out with its comma, quotes and (for a
// key) colon through one growth of the output and one memcpy. Only a
// string that needs an escape is walked byte by byte, from its first
// escape on, with the clean runs between escapes appended in one piece.
//
// Numbers go through std::to_chars: doubles in the shortest of fixed or
// exponent form with `precision` significant digits, the same bytes as
// printf's "%.<precision>g" (non-finite values print as "nan"/"inf",
// which are not JSON; callers keep them out).
//
// After every call the output holds exactly the bytes written so far.
// The writer does not check nesting: an unbalanced document is a caller
// bug the strict parser (io/json_parser.h) catches in tests.
#ifndef EGP_IO_JSON_WRITER_H_
#define EGP_IO_JSON_WRITER_H_

#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace egp {
namespace json_internal {

/// kEscape[c]: whether a JSON string escapes byte c ('"', '\\' and the
/// C0 controls).
inline constexpr std::array<bool, 256> kEscape = [] {
  std::array<bool, 256> escape{};
  for (size_t c = 0; c < 0x20; ++c) escape[c] = true;
  escape['"'] = true;
  escape['\\'] = true;
  return escape;
}();

/// The first byte of [p, end) that a string escapes, or end. Four table
/// lookups share one branch, so a clean name takes a branch per four
/// bytes rather than per byte.
inline const char* FindEscape(const char* p, const char* const end) {
  const auto escapes = [](const char* q) {
    return kEscape[static_cast<unsigned char>(q[0])] |
           kEscape[static_cast<unsigned char>(q[1])] |
           kEscape[static_cast<unsigned char>(q[2])] |
           kEscape[static_cast<unsigned char>(q[3])];
  };
  while (end - p >= 4 && !escapes(p)) p += 4;
  while (p != end && !kEscape[static_cast<unsigned char>(*p)]) ++p;
  return p;
}

}  // namespace json_internal

class JsonWriter {
 public:
  /// Appends to `*out`, which must outlive the writer; bytes already in
  /// it are left alone and never precede a comma.
  explicit JsonWriter(std::string* out) : out_(out), start_(out->size()) {}

  /// Makes room for `bytes` more bytes, so the writes that follow need
  /// no regrowth until they pass it. Never changes what is written.
  JsonWriter& Reserve(size_t bytes) {
    out_->reserve(out_->size() + bytes);
    return *this;
  }

  JsonWriter& BeginObject() {
    Separate();
    out_->push_back('{');
    return *this;
  }
  JsonWriter& EndObject() {
    out_->push_back('}');
    return *this;
  }
  JsonWriter& BeginArray() {
    Separate();
    out_->push_back('[');
    return *this;
  }
  JsonWriter& EndArray() {
    out_->push_back(']');
    return *this;
  }

  /// An object member's name; the next call writes its value.
  JsonWriter& Key(std::string_view key) { return Quoted(key, /*key=*/true); }

  JsonWriter& String(std::string_view text) {
    return Quoted(text, /*key=*/false);
  }
  JsonWriter& Bool(bool value) {
    Separate();
    out_->append(value ? "true" : "false");
    return *this;
  }
  JsonWriter& Int(int64_t value) { return Number(value); }
  JsonWriter& Uint(uint64_t value) { return Number(value); }

  /// `precision` significant digits, as printf's "%.<precision>g".
  JsonWriter& Double(double value, int precision = 10) {
    Separate();
    char buffer[32];
    const std::to_chars_result written =
        std::to_chars(buffer, buffer + sizeof(buffer), value,
                      std::chars_format::general, precision);
    out_->append(buffer, static_cast<size_t>(written.ptr - buffer));
    return *this;
  }

 private:
  template <typename Integer>
  JsonWriter& Number(Integer value) {
    Separate();
    char buffer[24];
    const std::to_chars_result written =
        std::to_chars(buffer, buffer + sizeof(buffer), value);
    out_->append(buffer, static_cast<size_t>(written.ptr - buffer));
    return *this;
  }

  bool NeedsComma() const {
    if (out_->size() == start_) return false;
    const char last = out_->back();
    return last != '{' && last != '[' && last != ':';
  }

  void Separate() {
    if (NeedsComma()) out_->push_back(',');
  }

  /// `text` as a JSON string, after its comma; `key` adds the ':'.
  JsonWriter& Quoted(std::string_view text, bool key) {
    const char* const begin = text.data();
    const char* const end = begin + text.size();
    const char* const escape = json_internal::FindEscape(begin, end);
    const bool comma = NeedsComma();
    if (escape == end) {
      const size_t at = out_->size();
      out_->resize(at + static_cast<size_t>(comma) + text.size() + 2 +
                   static_cast<size_t>(key));
      char* write = out_->data() + at;
      if (comma) *write++ = ',';
      *write++ = '"';
      if (!text.empty()) std::memcpy(write, begin, text.size());
      write += text.size();
      *write++ = '"';
      if (key) *write = ':';
      return *this;
    }
    if (comma) out_->push_back(',');
    out_->push_back('"');
    AppendEscaped(begin, escape, end);
    out_->push_back('"');
    if (key) out_->push_back(':');
    return *this;
  }

  /// [run, p) is clean and *p needs an escape: appends [run, end) with
  /// every byte that needs one escaped.
  void AppendEscaped(const char* run, const char* p, const char* end) {
    for (; p != end; ++p) {
      const unsigned char c = static_cast<unsigned char>(*p);
      if (!json_internal::kEscape[c]) continue;
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
  }

  std::string* out_;
  size_t start_;
};

}  // namespace egp

#endif  // EGP_IO_JSON_WRITER_H_
