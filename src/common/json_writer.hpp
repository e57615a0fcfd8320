// Small JSON writer for the report, profile, experiment, suite and trace
// files.
//
// Not a general serializer: just enough structure (objects, arrays, scalar
// fields) to emit valid JSON without pulling in a dependency. Output is
// rendered into one internal buffer with std::to_chars and written to the
// stream when a top-level value ends (so a caller may write raw bytes
// between top-level values, e.g. a trailing newline), when the buffer
// passes a fixed size, and on destruction.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sgprs::common {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}
  /// Writes what is still buffered (an unfinished document included).
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Starts a named field inside an object (call before a begin_* or value).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  /// %.9g (std::to_chars at precision 9, printf's general form); non-finite
  /// values become null.
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  /// Round-trip-exact double: shortest decimal form that parses back to the
  /// same bits. value(double) prints %.9g, which is fine for reports but
  /// lossy; formats that feed back into the engine (trace files) use this.
  JsonWriter& value_exact(double v);
  JsonWriter& field_exact(std::string_view k, double v) {
    key(k);
    return value_exact(v);
  }

  /// key + scalar value in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  static std::string escape(std::string_view s);

 private:
  void pre_value();
  // Ends a value: writes the buffer out when a top-level value is complete
  // or the buffer has passed its cap.
  void end_value();
  void flush();
  std::ostream& out_;
  std::string buf_;
  // Tracks whether a separator comma is needed at each nesting level.
  std::vector<bool> need_comma_{};
  bool pending_key_ = false;
};

}  // namespace sgprs::common
