// trace_scale determinism and semantics pins:
//  * fixed seed => bit-identical output (the CI regenerates checked-in
//    scaled traces and cmp's them);
//  * clone multiplies streams, time-warp scales the horizon, jitter stays
//    in bounds and preserves per-copy lifetimes;
//  * the output always passes validate_trace;
//  * config errors carry field paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>

#include "trace/scale.hpp"
#include "trace/trace.hpp"
#include "workload/spec_error.hpp"

namespace sgprs::trace {
namespace {

std::string trace_bytes(const Trace& t) {
  std::ostringstream os;
  write_trace(t, os);
  return os.str();
}

/// `n` streams: admit at i * 10 ms, retire 1 s later.
Trace ramp_trace(int n) {
  Trace t;
  t.name = "ramp";
  fleet::StreamTemplate tmpl;
  tmpl.name = "cam";
  t.templates.push_back(tmpl);
  for (int i = 0; i < n; ++i) {
    TraceEvent a;
    a.kind = TraceEvent::Kind::kAdmit;
    a.t_ns = static_cast<std::int64_t>(i) * 10'000'000;
    a.id = i;
    a.tmpl = "cam";
    a.source = "arrival";
    t.events.push_back(a);
  }
  for (int i = 0; i < n; ++i) {
    TraceEvent r;
    r.kind = TraceEvent::Kind::kRetire;
    r.t_ns = static_cast<std::int64_t>(i) * 10'000'000 + 1'000'000'000;
    r.id = i;
    r.source = "lifetime elapsed";
    t.events.push_back(r);
  }
  std::sort(t.events.begin(), t.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.t_ns < b.t_ns;
            });
  validate_trace(t);
  return t;
}

int admit_count(const Trace& t) {
  int n = 0;
  for (const auto& e : t.events) {
    if (e.kind == TraceEvent::Kind::kAdmit) ++n;
  }
  return n;
}

TEST(TraceScaleTest, FixedSeedIsBitReproducible) {
  const Trace in = ramp_trace(8);
  TraceScaleConfig cfg;
  cfg.clone = 7;
  cfg.rate = 1.3;
  cfg.jitter_ms = 150.0;
  cfg.time_warp = 0.5;
  cfg.seed = 42;
  EXPECT_EQ(trace_bytes(scale_trace(in, cfg)),
            trace_bytes(scale_trace(in, cfg)));

  TraceScaleConfig other = cfg;
  other.seed = 43;
  EXPECT_NE(trace_bytes(scale_trace(in, other)),
            trace_bytes(scale_trace(in, cfg)));
}

TEST(TraceScaleTest, CloneMultipliesStreamsAndStaysValid) {
  const Trace in = ramp_trace(8);
  TraceScaleConfig cfg;
  cfg.clone = 3;
  cfg.jitter_ms = 50.0;
  cfg.seed = 7;
  const Trace out = scale_trace(in, cfg);
  validate_trace(out);
  EXPECT_EQ(admit_count(out), 3 * 8);
  EXPECT_EQ(out.events.size(), 3u * in.events.size());
}

TEST(TraceScaleTest, TimeWarpScalesHorizon) {
  const Trace in = ramp_trace(4);
  TraceScaleConfig cfg;
  cfg.time_warp = 2.0;
  const Trace out = scale_trace(in, cfg);
  validate_trace(out);
  EXPECT_EQ(out.horizon().ns, 2 * in.horizon().ns);
}

TEST(TraceScaleTest, JitterStaysInBoundsAndPreservesLifetimes) {
  const Trace in = ramp_trace(1);  // admit at 0, retire at 1 s
  TraceScaleConfig cfg;
  cfg.clone = 5;
  cfg.jitter_ms = 100.0;
  cfg.seed = 9;
  const Trace out = scale_trace(in, cfg);
  validate_trace(out);
  ASSERT_EQ(admit_count(out), 5);

  std::unordered_map<int, std::int64_t> admit_at;
  bool jittered = false;
  for (const auto& e : out.events) {
    if (e.kind == TraceEvent::Kind::kAdmit) {
      EXPECT_GE(e.t_ns, 0);
      EXPECT_LE(e.t_ns, 100'000'000);  // within the jitter window
      if (e.t_ns != 0) jittered = true;
      admit_at[e.id] = e.t_ns;
    } else {
      // Each copy's lifetime is exactly the recorded one second.
      EXPECT_EQ(e.t_ns - admit_at.at(e.id), 1'000'000'000);
    }
  }
  EXPECT_TRUE(jittered);  // the extra copies actually spread out
}

TEST(TraceScaleTest, FractionalRateDrawsPerStream) {
  const Trace in = ramp_trace(40);
  TraceScaleConfig cfg;
  cfg.rate = 2.5;
  cfg.seed = 11;
  const Trace out = scale_trace(in, cfg);
  validate_trace(out);
  EXPECT_GE(admit_count(out), 2 * 40);
  EXPECT_LE(admit_count(out), 3 * 40);
  EXPECT_GT(admit_count(out), 2 * 40);  // with 40 draws at p=0.5, some hit
  EXPECT_LT(admit_count(out), 3 * 40);  // ... and some miss
}

TEST(TraceScaleTest, DefaultsAreIdentityOnEvents) {
  const Trace in = ramp_trace(6);
  Trace out = scale_trace(in, TraceScaleConfig{});
  EXPECT_NE(out.description.find("scaled:"), std::string::npos);
  out.description = in.description;  // the stamp is the only difference
  EXPECT_EQ(trace_bytes(out), trace_bytes(in));
}

TEST(TraceScaleTest, RejectsBadConfigWithFieldPaths) {
  const Trace in = ramp_trace(1);
  const auto path_of = [&](const TraceScaleConfig& cfg) {
    try {
      scale_trace(in, cfg);
    } catch (const workload::SpecError& e) {
      return std::string(e.path());
    }
    ADD_FAILURE() << "expected SpecError";
    return std::string();
  };
  TraceScaleConfig warp;
  warp.time_warp = 0.0;
  EXPECT_EQ(path_of(warp), "scale.time_warp");
  TraceScaleConfig clone;
  clone.clone = 0;
  EXPECT_EQ(path_of(clone), "scale.clone");
  TraceScaleConfig rate;
  rate.rate = -1.0;
  EXPECT_EQ(path_of(rate), "scale.rate");
  TraceScaleConfig jitter;
  jitter.jitter_ms = -0.5;
  EXPECT_EQ(path_of(jitter), "scale.jitter_ms");

  // Hostile values fail before anything is allocated: no out-of-range
  // timestamp, undefined float-to-int cast or bad_alloc.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TraceScaleConfig bad;
  bad.time_warp = 1e308;  // the last event lands past SimTime's range
  EXPECT_EQ(path_of(bad), "scale.time_warp");
  bad = {};
  bad.time_warp = inf;
  EXPECT_EQ(path_of(bad), "scale.time_warp");
  bad = {};
  bad.clone = 2;
  bad.jitter_ms = 1e308;
  EXPECT_EQ(path_of(bad), "scale.jitter_ms");
  bad = {};
  bad.jitter_ms = nan;
  EXPECT_EQ(path_of(bad), "scale.jitter_ms");
  bad = {};
  bad.rate = inf;
  EXPECT_EQ(path_of(bad), "scale.rate");
  bad = {};
  bad.rate = 1e9;  // more events than a trace file can hold
  EXPECT_EQ(path_of(bad), "scale.rate");
  bad = {};
  bad.clone = std::numeric_limits<int>::max();
  EXPECT_EQ(path_of(bad), "scale.clone");
  // Jitter well inside the clock's range still scales.
  TraceScaleConfig wide;
  wide.clone = 2;
  wide.jitter_ms = 1e12;
  EXPECT_EQ(scale_trace(in, wide).events.size(), 2 * in.events.size());
}

}  // namespace
}  // namespace sgprs::trace
