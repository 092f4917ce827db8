// Strict JSON parsing, the inbound half of the io layer's JSON support
// (json_export.h is the outbound half).
//
// Built for hostile input: the HTTP serving subsystem feeds it raw
// request bodies, so the parser must reject — never crash on — anything
// malformed. It implements RFC 8259 strictly:
//   * full UTF-8 validation of the input (overlong encodings, surrogates,
//     out-of-range code points, and truncated sequences are errors);
//   * \uXXXX escapes with mandatory surrogate pairing;
//   * RFC number grammar only (no leading '+', no bare '.', no hex,
//     no NaN/Infinity); values that overflow double are errors;
//   * no trailing garbage after the top-level value;
//   * a recursion depth limit (stack safety) and duplicate-key
//     rejection.
// Errors are Status::InvalidArgument with the byte offset of the fault.
// No external JSON library is required anywhere in the repo.
#ifndef EGP_IO_JSON_PARSER_H_
#define EGP_IO_JSON_PARSER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace egp {

/// One parsed JSON value. Objects preserve member order (first to last as
/// written); lookup is linear, which is the right trade-off for the small
/// request documents this exists for.
class JsonValue {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() = default;  // null

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool value);
  static JsonValue MakeNumber(double value);
  static JsonValue MakeString(std::string value);
  static JsonValue MakeArray(Array values);
  static JsonValue MakeObject(Object members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; calling the wrong one aborts (check kind() first).
  bool bool_value() const;
  double number_value() const;
  const std::string& string_value() const;
  const Array& array() const;
  const Object& object() const;

  /// First member with `key` in an object, nullptr when absent. Aborts on
  /// non-objects.
  const JsonValue* Find(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// "null", "bool", "number", "string", "array", "object".
std::string_view JsonKindName(JsonValue::Kind kind);

/// Maximum nesting depth of arrays/objects; deeper input is rejected
/// (stack safety against e.g. 100k opening brackets).
inline constexpr size_t kJsonMaxDepth = 64;

/// Parses exactly one JSON document from `text` (the whole input; leading
/// and trailing RFC whitespace allowed, anything else after the value is
/// an error). Objects with repeated keys are rejected: RFC 8259 leaves
/// the behaviour unspecified, and for request parsing a silent last-wins
/// would let an attacker smuggle contradictory parameters past logging.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace egp

#endif  // EGP_IO_JSON_PARSER_H_
