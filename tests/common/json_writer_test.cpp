#include "common/json_writer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace sgprs::common {
namespace {

TEST(JsonWriter, EmptyObject) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object().end_object();
  EXPECT_EQ(os.str(), "{}");
}

TEST(JsonWriter, ScalarFields) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .field("s", "hi")
      .field("i", std::int64_t{42})
      .field("d", 1.5)
      .field("b", true)
      .end_object();
  EXPECT_EQ(os.str(), R"({"s":"hi","i":42,"d":1.5,"b":true})");
}

TEST(JsonWriter, ArrayOfObjects) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.begin_object().field("x", 1).end_object();
  w.begin_object().field("x", 2).end_object();
  w.end_array();
  EXPECT_EQ(os.str(), R"([{"x":1},{"x":2}])");
}

TEST(JsonWriter, NestedStructure) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object().key("a");
  w.begin_array().value(1).value(2).end_array();
  w.field("b", "z").end_object();
  EXPECT_EQ(os.str(), R"({"a":[1,2],"b":"z"})");
}

TEST(JsonWriter, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::escape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonWriter::escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonWriter, NonFiniteDoubleBecomesNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array().value(std::nan("")).end_array();
  EXPECT_EQ(os.str(), "[null]");
}

TEST(JsonWriter, UnbalancedEndThrows) {
  std::ostringstream os;
  JsonWriter w(os);
  EXPECT_THROW(w.end_object(), CheckError);
}

// --- The writer against the formatting it replaced ---------------------
// The oracles below are the snprintf/strtod formatting JsonWriter used
// before it rendered with std::to_chars; every output must be byte-equal.

std::string oracle_g9(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string oracle_exact(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string oracle_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// ~10k seeded doubles: every binary exponent (normal and subnormal, both
/// signs, random mantissas), signed zeros, integers, powers of ten and
/// their neighbours, decimal ties at the 9th and 17th significant digit,
/// and random bit patterns.
std::vector<double> double_corpus() {
  Rng rng(20241020);
  std::vector<double> v = {0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(),
                           std::numeric_limits<double>::epsilon()};
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    v.push_back(p);
    v.push_back(-std::nextafter(p, 0.0));
    v.push_back(std::ldexp(1.0 + rng.next_double(), e));
  }
  for (int i = 0; i < 400; ++i) {
    // Subnormals: a zero exponent field and a random mantissa.
    v.push_back(from_bits(rng.next_u64() & ((std::uint64_t{1} << 52) - 1)));
  }
  for (int i = -1000; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  for (int e = -30; e <= 30; ++e) {
    const double p = std::pow(10.0, e);
    v.push_back(p);
    v.push_back(std::nextafter(p, 0.0));
    v.push_back(std::nextafter(p, 1e300));
    v.push_back(p * 0.999999999);
    v.push_back(p * 0.9999999995);
  }
  for (int i = 0; i < 1000; ++i) {
    // Integers of ten digits ending in 5: exact ties at %.9g.
    const auto n = 1000000000 + 10 * static_cast<std::int64_t>(
                                         rng.next_u64() % 900000000) + 5;
    v.push_back(static_cast<double>(n));
    // Ten significant digits ending in 5, at a random scale: near-ties.
    v.push_back(static_cast<double>(n) *
                std::pow(10.0, static_cast<int>(rng.next_u64() % 40) - 25));
  }
  while (v.size() < 10000) {
    const double d = from_bits(rng.next_u64());
    if (std::isfinite(d)) v.push_back(d);
  }
  return v;
}

TEST(JsonWriterOracle, DoublesMatchPrintfOnEveryExponent) {
  const std::vector<double> corpus = double_corpus();
  ASSERT_GE(corpus.size(), 10000u);
  // One array: the rendering passes the buffer's flush cap many times.
  std::ostringstream os;
  std::string want = "[";
  {
    JsonWriter w(os);
    w.begin_array();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      w.value(corpus[i]);
      if (i) want += ',';
      want += oracle_g9(corpus[i]);
    }
    w.end_array();
  }
  want += ']';
  ASSERT_EQ(os.str().size(), want.size());
  EXPECT_EQ(os.str(), want);
  for (double d : corpus) {
    std::ostringstream one;
    JsonWriter(one).value(d);
    ASSERT_EQ(one.str(), oracle_g9(d)) << std::hexfloat << d;
  }
}

TEST(JsonWriterOracle, ExactDoublesMatchTheStrtodLoop) {
  for (double d : double_corpus()) {
    std::ostringstream one;
    JsonWriter(one).value_exact(d);
    ASSERT_EQ(one.str(), oracle_exact(d)) << std::hexfloat << d;
    EXPECT_EQ(std::strtod(one.str().c_str(), nullptr), d);
  }
}

TEST(JsonWriterOracle, NonFiniteDoublesAreNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  for (double d : {std::nan(""), -std::nan(""),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    w.value(d).value_exact(d);
  }
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null,null,null,null,null,null,null]");
}

TEST(JsonWriterOracle, IntegersAtTheInt64Limits) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array()
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::numeric_limits<std::int64_t>::max())
      .value(std::int64_t{0})
      .value(-1)
      .value(std::numeric_limits<int>::min())
      .end_array();
  EXPECT_EQ(os.str(),
            "[-9223372036854775808,9223372036854775807,0,-1,-2147483648]");
}

TEST(JsonWriterOracle, StringsEscapeEveryControlByteQuoteAndBackslash) {
  std::string every;
  for (int c = 0; c < 256; ++c) every += static_cast<char>(c);
  const std::vector<std::string> strings = {
      every, "", "plain", "\"", "\\", "a\"b\\c\n\r\t\x01\x1f\x7f end",
      std::string(70000, 'x') + "\"" + std::string(3, '\0')};
  for (const std::string& s : strings) {
    EXPECT_EQ(JsonWriter::escape(s), oracle_escape(s));
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object().field(s, s).end_object();
    const std::string q = "\"" + oracle_escape(s) + "\"";
    EXPECT_EQ(os.str(), "{" + q + ":" + q + "}");
  }
}

TEST(JsonWriterOracle, RawWritesBetweenTopLevelValuesKeepTheirPlace) {
  // A report writer's pattern: a document, then a raw newline from the
  // same scope, with the writer still alive. A document past the flush
  // cap, and a second writer on the same stream, keep the order too.
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object().field("a", 1).end_object();
  os << "\n";
  w.begin_array();
  for (int i = 0; i < 20000; ++i) w.value(i);
  w.end_array();
  os << "\n";
  JsonWriter(os).value("tail");
  os << "!";
  std::string want = "{\"a\":1}\n[";
  for (int i = 0; i < 20000; ++i) want += (i ? "," : "") + std::to_string(i);
  want += "]\n\"tail\"!";
  EXPECT_EQ(os.str(), want);
}

TEST(JsonWriterOracle, TraceFilesKeepTheirOneValuePerLineBytes) {
  // write_trace interleaves raw separators with one writer per template
  // and event; the bytes are those the stream-insert writer produced.
  trace::Trace t;
  t.name = "tiny \"q\"";
  t.description = "two lines\nand a tab\t";
  fleet::StreamTemplate a;
  a.name = "cam";
  a.fps = 29.97;
  a.deadline_ms = 1000.0 / 29.97;
  a.phase_ms = 0.1;
  a.mem_mb = 512.5;
  a.warps = 96;
  fleet::StreamTemplate b;
  b.name = "burst";
  b.network = "lenet5";
  b.arrival = rt::ArrivalModel::kSporadic;
  b.min_separation_ms = 16.7;
  b.max_separation_ms = 40.0;
  t.templates = {a, b};
  trace::TraceEvent admit;
  admit.t_ns = 100000000;
  admit.id = 0;
  admit.tmpl = "cam";
  admit.source = "scripted";
  trace::TraceEvent tiered;
  tiered.t_ns = 150000000;
  tiered.id = 1;
  tiered.tmpl = "burst";
  tiered.tier = 0;
  trace::TraceEvent crash;
  crash.kind = trace::TraceEvent::Kind::kCrash;
  crash.t_ns = 200000000;
  crash.device = 2;
  trace::TraceEvent retire;
  retire.kind = trace::TraceEvent::Kind::kRetire;
  retire.t_ns = 250000000;
  retire.id = 0;
  retire.source = "lifetime elapsed";
  t.events = {admit, tiered, crash, retire};
  std::ostringstream os;
  trace::write_trace(t, os);
  EXPECT_EQ(
      os.str(),
      "{\n\"sgprs_trace\":1,\n\"name\":\"tiny \\\"q\\\"\",\n"
      "\"description\":\"two lines\\nand a tab\\t\",\n\"templates\":[\n"
      "{\"name\":\"cam\",\"network\":\"resnet18\",\"fps\":29.97,\"stages\":6,"
      "\"deadline_ms\":33.366700033366705,\"phase_ms\":0.1,"
      "\"priority\":\"last_stage_high\",\"arrival\":\"periodic\",\"tier\":1,"
      "\"mem_mb\":512.5,\"warps\":96},\n"
      "{\"name\":\"burst\",\"network\":\"lenet5\",\"fps\":30,\"stages\":6,"
      "\"deadline_ms\":0,\"phase_ms\":0,\"priority\":\"last_stage_high\","
      "\"arrival\":\"sporadic\",\"min_separation_ms\":16.7,"
      "\"max_separation_ms\":40,\"tier\":1}\n],\n\"events\":[\n"
      "{\"t_ns\":100000000,\"admit\":\"cam\",\"id\":0,\"source\":\"scripted\"},\n"
      "{\"t_ns\":150000000,\"admit\":\"burst\",\"id\":1,\"tier\":0},\n"
      "{\"t_ns\":200000000,\"fault\":\"crash\",\"device\":2},\n"
      "{\"t_ns\":250000000,\"retire\":0,\"source\":\"lifetime elapsed\"}\n"
      "]\n}\n");
}

}  // namespace
}  // namespace sgprs::common
