#include "trace/scale.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "workload/spec_error.hpp"

namespace sgprs::trace {

namespace {

/// Fresh generator for one (stream, copy) pair: state mixes the seed with
/// both indices through distinct odd multipliers, then splitmix64
/// finalizes. Independent of generation order, so the output is a pure
/// function of (trace, config).
common::Rng rng_for(std::uint64_t seed, std::size_t stream, int copy) {
  std::uint64_t state =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(stream) + 1) +
      0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(copy) + 1);
  return common::Rng(common::splitmix64_next(state));
}

std::int64_t warp(std::int64_t t_ns, double time_warp) {
  return std::llround(static_cast<double>(t_ns) * time_warp);
}

bool is_fault(const TraceEvent& e) {
  return e.kind == TraceEvent::Kind::kCrash ||
         e.kind == TraceEvent::Kind::kRecover;
}

/// The most events a loadable trace holds: the shortest event line
/// write_trace emits, with its separator, under common::kMaxJsonFileBytes.
constexpr std::size_t kMaxLoadableEvents =
    common::kMaxJsonFileBytes / (sizeof(R"({"t_ns":0,"retire":0},)") - 1);

/// Throws workload::SpecError naming the first field that is out of range,
/// would push an output t_ns past SimTime, or would write a trace too large
/// to load, before anything is allocated. Returns the projected event count.
std::size_t checked_output_events(const Trace& in,
                                  const TraceScaleConfig& cfg) {
  const auto require = [](bool ok, const char* path, const std::string& msg) {
    if (!ok) throw workload::SpecError(path, msg);
  };
  require(std::isfinite(cfg.time_warp) && cfg.time_warp > 0.0,
          "scale.time_warp", "must be finite and > 0");
  require(cfg.clone >= 1, "scale.clone", "must be >= 1");
  require(std::isfinite(cfg.rate) && cfg.rate > 0.0, "scale.rate",
          "must be finite and > 0");
  require(std::isfinite(cfg.jitter_ms) && cfg.jitter_ms >= 0.0,
          "scale.jitter_ms", "must be finite and >= 0");

  // Each admit and retire is copied up to ceil(clone * rate) times, each
  // fault once. At least one stream event counts, so the copy count stays
  // bounded on a trace without streams.
  const auto faults = static_cast<double>(
      std::count_if(in.events.begin(), in.events.end(), is_fault));
  const double per_copy =
      std::max(static_cast<double>(in.events.size()) - faults, 1.0);
  const double events = per_copy * std::ceil(cfg.clone * cfg.rate) + faults;
  const auto limit = static_cast<double>(kMaxLoadableEvents);
  const std::string too_many = "clone x rate projects more than " +
                               std::to_string(kMaxLoadableEvents) +
                               " events, past what a trace file can hold";
  const bool fits = events <= limit;
  require(fits || per_copy * cfg.clone + faults <= limit, "scale.clone",
          too_many);
  require(fits, "scale.rate", too_many);

  // warp() is monotone and events are time-ordered, so the last event
  // bounds every output time; jitter adds at most jitter_ms.
  // Below 2^63 in double, the rounded sum stays below it in int64 too.
  const double last = static_cast<double>(in.horizon().ns) * cfg.time_warp;
  require(last < 0x1p63, "scale.time_warp",
          "puts the last event past the simulator clock's range");
  require(last + cfg.jitter_ms * 1e6 < 0x1p63, "scale.jitter_ms",
          "puts a jittered copy past the simulator clock's range");
  return static_cast<std::size_t>(events);
}

}  // namespace

Trace scale_trace(const Trace& in, const TraceScaleConfig& cfg) {
  const std::size_t max_events = checked_output_events(in, cfg);

  // Group the recorded events into streams: one admit, at most one retire.
  struct Stream {
    std::size_t admit = 0;
    std::ptrdiff_t retire = -1;
  };
  std::vector<Stream> streams;
  std::unordered_map<int, std::size_t> stream_by_id;
  // Fault events are fleet-level, not per-stream: they time-warp with
  // everything else but are never cloned (cloning tenants multiplies load,
  // not outages) and take no jitter.
  std::vector<std::size_t> faults;
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    const TraceEvent& e = in.events[i];
    if (e.kind == TraceEvent::Kind::kAdmit) {
      stream_by_id[e.id] = streams.size();
      streams.push_back({i, -1});
    } else if (e.kind == TraceEvent::Kind::kRetire) {
      streams[stream_by_id.at(e.id)].retire =
          static_cast<std::ptrdiff_t>(i);
    } else {
      faults.push_back(i);
    }
  }

  // Generate the copies. Jitter shifts a copy's admit and retire by the
  // same offset — lifetimes are part of the recorded shape and survive
  // scaling; only arrival instants spread out.
  struct Generated {
    std::int64_t t_ns;
    std::size_t orig;  // index of the source event in `in`
    std::size_t stream;
    int copy;
    bool admit;
  };
  const double factor = static_cast<double>(cfg.clone) * cfg.rate;
  const int whole = static_cast<int>(std::floor(factor));
  const double frac = factor - static_cast<double>(whole);
  std::vector<Generated> gen;
  gen.reserve(max_events);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    int copies = whole;
    if (frac > 0.0 && rng_for(cfg.seed, s, 0).next_double() < frac) {
      ++copies;
    }
    for (int c = 0; c < copies; ++c) {
      std::int64_t delta = 0;
      if (c > 0 && cfg.jitter_ms > 0.0) {
        delta = std::llround(
            rng_for(cfg.seed, s, c).uniform(0.0, cfg.jitter_ms) * 1e6);
      }
      const std::size_t admit_idx = streams[s].admit;
      gen.push_back({warp(in.events[admit_idx].t_ns, cfg.time_warp) + delta,
                     admit_idx, s, c, true});
      if (streams[s].retire >= 0) {
        const auto retire_idx =
            static_cast<std::size_t>(streams[s].retire);
        gen.push_back(
            {warp(in.events[retire_idx].t_ns, cfg.time_warp) + delta,
             retire_idx, s, c, false});
      }
    }
  }

  for (const std::size_t f : faults) {
    gen.push_back({warp(in.events[f].t_ns, cfg.time_warp), f, 0, 0, false});
  }

  // Deterministic total order: time, then source-event order (an admit
  // always precedes its own retire in the source), then copy index.
  std::sort(gen.begin(), gen.end(),
            [](const Generated& a, const Generated& b) {
              if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
              if (a.orig != b.orig) return a.orig < b.orig;
              return a.copy < b.copy;
            });

  Trace out;
  out.name = in.name;
  char desc[160];
  std::snprintf(desc, sizeof(desc),
                "scaled: clone=%d rate=%g time_warp=%g jitter_ms=%g seed=%llu",
                cfg.clone, cfg.rate, cfg.time_warp, cfg.jitter_ms,
                static_cast<unsigned long long>(cfg.seed));
  out.description = in.description.empty()
                        ? std::string(desc)
                        : in.description + " | " + desc;
  out.templates = in.templates;
  out.events.reserve(gen.size());
  // Renumber admit ids densely in the new order; retires follow their
  // (stream, copy)'s admit.
  std::map<std::pair<std::size_t, int>, int> new_id;
  int next_id = 0;
  for (const Generated& g : gen) {
    TraceEvent e = in.events[g.orig];
    e.t_ns = g.t_ns;
    if (is_fault(e)) {
      out.events.push_back(std::move(e));
      continue;
    }
    if (g.admit) {
      e.id = next_id++;
      new_id[{g.stream, g.copy}] = e.id;
    } else {
      e.id = new_id.at({g.stream, g.copy});
    }
    out.events.push_back(std::move(e));
  }
  return out;
}

}  // namespace sgprs::trace
