// Minimal JSON reader — the counterpart to json_writer.
//
// Parses a full document into a JsonValue tree. Not a general-purpose
// library: just enough for declarative scenario specs, with two priorities —
// (1) precise errors ("line 12, column 8: expected ',' or '}'") because
// humans edit these files by hand, and (2) checked accessors that name the
// offending key so the spec layer can surface "pool.contexts: expected a
// number" instead of a bare bad_variant_access. `//` line comments are
// accepted (scenario files want inline annotations); everything else is
// strict JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sgprs::common {

/// Parse or type error. `line`/`column` are 1-based and 0 when the error is
/// not tied to a source position (e.g. a type mismatch on a built value).
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& msg, int line = 0, int column = 0);
  int line() const { return line_; }
  int column() const { return column_; }

  /// Re-raises `e` with a context prefix (e.g. a file path), preserving
  /// its position fields without duplicating the position suffix.
  static JsonError with_context(const std::string& prefix,
                                const JsonError& e);

 private:
  struct Raw {};
  JsonError(Raw, const std::string& what, int line, int column);
  int line_ = 0;
  int column_ = 0;
};

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null

  static JsonValue of(bool b);
  static JsonValue of(double n);
  static JsonValue of(std::int64_t n);
  static JsonValue of(int n) { return of(static_cast<std::int64_t>(n)); }
  static JsonValue of(std::string s);
  static JsonValue of(const char* s) { return of(std::string(s)); }
  static JsonValue array();
  static JsonValue object();

  Type type() const { return type_; }
  const char* type_name() const;
  static const char* type_name(Type t);

  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Checked accessors: throw JsonError naming the expected and actual type.
  bool as_bool() const;
  double as_number() const;
  /// Number that must be integral (1e3 is fine, 1.5 is not).
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;    // array elements
  const std::vector<Member>& members() const;     // object members, in order

  /// Array or object element count.
  std::size_t size() const;

  /// Object lookup; nullptr when the key is absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object lookup that throws JsonError naming the missing key.
  const JsonValue& at(const std::string& key) const;

  /// Mutators for building values in tests / tools.
  void push(JsonValue v);                      // array
  void set(const std::string& key, JsonValue v);  // object (append)

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  bool num_integral_ = false;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<Member> obj_;
};

/// Deepest array/object nesting parse_json accepts. The reader recurses
/// once per level, so a deeper document is an error (with the position of
/// the bracket that crosses the limit) rather than a stack overflow.
inline constexpr int kMaxJsonDepth = 256;

/// Parses one JSON document (with optional `//` comments). Trailing
/// non-whitespace after the document is an error. Throws JsonError.
JsonValue parse_json(std::string_view text);

/// Largest file parse_json_file reads. The largest curated input is under
/// 1 MiB; a bigger file, or an endless one such as /dev/zero, is an error
/// naming the path rather than an allocation failure.
inline constexpr std::size_t kMaxJsonFileBytes = std::size_t{64} << 20;

/// Reads and parses a file; errors are prefixed with the path. A directory
/// or a file past kMaxJsonFileBytes is a JsonError too.
JsonValue parse_json_file(const std::string& path);

}  // namespace sgprs::common
