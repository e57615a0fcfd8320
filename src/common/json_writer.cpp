#include "common/json_writer.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/check.hpp"

namespace sgprs::common {

namespace {

// Buffered bytes past which a value's end writes them out.
constexpr std::size_t kFlushBytes = std::size_t{1} << 16;

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

// Appends `s` to `out` with JSON escapes; bytes that need none are
// appended in runs.
void append_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (!needs_escape(c)) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const auto b = static_cast<unsigned char>(c);
        const char u[] = {'\\', 'u', '0', '0', kHex[b >> 4], kHex[b & 15]};
        out.append(u, sizeof(u));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

// Appends `v` in printf's %.<prec>g form.
void append_general(std::string& out, double v, int prec) {
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, prec);
  out.append(buf, r.ptr);
}

}  // namespace

JsonWriter::~JsonWriter() {
  try {
    flush();
  } catch (...) {
    // A stream set to throw has already recorded the failed write in its
    // state (badbit), which its owner reads; a destructor must not throw.
  }
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(out, s);
  return out;
}

void JsonWriter::flush() {
  if (buf_.empty()) return;
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  buf_.clear();
}

void JsonWriter::pre_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // key() already emitted the separator.
  }
  if (!need_comma_.empty()) {
    if (need_comma_.back()) buf_ += ',';
    need_comma_.back() = true;
  }
}

void JsonWriter::end_value() {
  if (need_comma_.empty() || buf_.size() >= kFlushBytes) flush();
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  buf_ += '{';
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  SGPRS_CHECK(!need_comma_.empty());
  need_comma_.pop_back();
  buf_ += '}';
  end_value();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  buf_ += '[';
  need_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  SGPRS_CHECK(!need_comma_.empty());
  need_comma_.pop_back();
  buf_ += ']';
  end_value();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  SGPRS_CHECK(!need_comma_.empty());
  if (need_comma_.back()) buf_ += ',';
  need_comma_.back() = true;
  buf_ += '"';
  append_escaped(buf_, k);
  buf_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  pre_value();
  buf_ += '"';
  append_escaped(buf_, v);
  buf_ += '"';
  end_value();
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  pre_value();
  if (std::isfinite(v)) {
    append_general(buf_, v, 9);
  } else {
    buf_ += "null";
  }
  end_value();
  return *this;
}

JsonWriter& JsonWriter::value_exact(double v) {
  pre_value();
  if (!std::isfinite(v)) {
    buf_ += "null";
    end_value();
    return *this;
  }
  // Shortest %.g form that survives a strtod round trip; 17 significant
  // digits always do, most values need fewer.
  char buf[32];
  for (int prec = 15; prec <= 17; ++prec) {
    const auto r = std::to_chars(buf, buf + sizeof(buf) - 1, v,
                                 std::chars_format::general, prec);
    *r.ptr = '\0';
    if (std::strtod(buf, nullptr) == v) break;
  }
  buf_ += buf;
  end_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  pre_value();
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  buf_.append(buf, r.ptr);
  end_value();
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  buf_ += v ? "true" : "false";
  end_value();
  return *this;
}

}  // namespace sgprs::common
