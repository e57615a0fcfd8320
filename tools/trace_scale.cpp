// trace_scale — synthesize a scaled workload trace from a recorded one
// (src/trace/scale.hpp has the semantics; docs/traces.md the workflow).
//
// Examples (an indented line continues the command above it):
//   trace_scale --in=day.json --out=day_100x.json --clone=100
//               --jitter-ms=250 --seed=7
//   trace_scale --in=day.json --out=day_fast.json --time-warp=0.01
//
// Output is a pure function of (input trace, flags): a fixed seed is
// bit-reproducible, so scaled traces can be checked into scenarios/traces/
// and regenerated byte-identically (CI does exactly that).
#include <fstream>
#include <iostream>

#include "common/flags.hpp"
#include "trace/scale.hpp"
#include "trace/trace.hpp"
#include "workload/spec_error.hpp"

int main(int argc, char** argv) {
  using namespace sgprs;

  common::FlagParser flags;
  flags.define("in", "recorded trace to scale", "");
  flags.define("out", "where to write the scaled trace", "");
  flags.define("time-warp",
               "timestamp multiplier (> 0); 0.1 replays the day 10x faster",
               "1.0");
  flags.define("clone",
               "whole-number tenant cloning (>= 1): every recorded stream "
               "appears this many times",
               "1");
  flags.define("rate",
               "fractional load multiplier (> 0); composes with --clone",
               "1.0");
  flags.define("jitter-ms",
               "max uniform admission offset for clones beyond the first, "
               "in post-warp milliseconds",
               "0");
  flags.define("seed", "jitter/fractional-copy seed", "1");
  flags.define_bool("help", "show this help");

  if (!flags.parse(argc, argv)) {
    std::cerr << flags.error() << "\n" << flags.help(argv[0]);
    return 1;
  }
  if (flags.get_bool("help")) {
    std::cout << flags.help(argv[0]);
    return 0;
  }
  if (!flags.has("in") || !flags.has("out")) {
    std::cerr << "error: --in and --out are required\n"
              << flags.help(argv[0]);
    return 1;
  }

  try {
    trace::TraceScaleConfig cfg;
    cfg.time_warp = flags.get_double("time-warp");
    cfg.clone = flags.get_int("clone");
    cfg.rate = flags.get_double("rate");
    cfg.jitter_ms = flags.get_double("jitter-ms");
    cfg.seed = workload::checked_seed(flags.get_int("seed"), "scale.seed");

    const trace::Trace in = trace::load_trace(flags.get("in"));
    const trace::Trace out = trace::scale_trace(in, cfg);
    trace::save_trace(out, flags.get("out"));

    std::cout << "scaled " << flags.get("in") << " -> " << flags.get("out")
              << "\n  events:  " << in.events.size() << " -> "
              << out.events.size() << "\n  horizon: "
              << in.horizon().to_sec() << " s -> " << out.horizon().to_sec()
              << " s\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
