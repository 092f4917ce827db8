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
// (UTF-8) pass through raw. Clean runs between escapes are appended in
// one piece. Numbers go through std::to_chars: doubles in the shortest
// of fixed or exponent form with `precision` significant digits, the
// same bytes as printf's "%.<precision>g" (non-finite values print as
// "nan"/"inf", which are not JSON; callers keep them out).
//
// The writer does not check nesting: an unbalanced document is a caller
// bug the strict parser (io/json_parser.h) catches in tests.
#ifndef EGP_IO_JSON_WRITER_H_
#define EGP_IO_JSON_WRITER_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace egp {

class JsonWriter {
 public:
  /// Appends to `*out`, which must outlive the writer; bytes already in
  /// it are left alone and never precede a comma.
  explicit JsonWriter(std::string* out) : out_(out), start_(out->size()) {}

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
  JsonWriter& Key(std::string_view key) {
    Separate();
    AppendQuoted(key);
    out_->push_back(':');
    return *this;
  }

  JsonWriter& String(std::string_view text) {
    Separate();
    AppendQuoted(text);
    return *this;
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

}  // namespace egp

#endif  // EGP_IO_JSON_WRITER_H_
