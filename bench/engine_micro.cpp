// bench_engine_micro — events/sec of the discrete-event calendar itself,
// new slab engine vs the frozen seed engine, in one Release binary.
//
// The engine is the constant factor under every simulated event in the
// repo, and the Monte-Carlo experiment layer multiplies that constant by
// (cells x replications). Four workloads bracket how the schedulers
// actually drive it:
//   * schedule_fire:    repeated release-burst + drain rounds at the
//                       pending-set size real scenarios exhibit.
//   * schedule_cancel:  schedule a burst, cancel all, drain — the lazy-
//                       deletion path.
//   * completion_rearm: the executor's cancel-and-rearm completion event
//                       pattern, several reschedules per actual fire.
//   * parallel_sweep:   4 engines running whole burst workloads
//                       concurrently — the Monte-Carlo layer's shape.
// Callbacks capture 4 words. Like the runner's 3-word release callback,
// that is past std::function's inline buffer, so the comparison isolates
// engine overhead at a real capture size instead of benchmarking
// std::function copies of synthetic tiny lambdas.
//
// Each workload runs `kReps` times per engine and reports the best run
// (allocation warm-up lands in rep 1; steady state is what we measure).
// Emits BENCH_engine.json via bench::BenchReport (schema:
// docs/benchmarks.md) with both absolute rates and seed-relative speedups.
// Pass a directory argument to redirect the report.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline_engine.hpp"
#include "figure_common.hpp"
#include "sim/engine.hpp"

using namespace sgprs;
using common::SimTime;

namespace {

constexpr int kReps = 5;
// Instrumenting run_spec(paper scenario 1 / 24-task stress) gives the
// real calendar profile this bench must match: pending-set high-water of
// 17-25 events, ~66k-99k schedules per run of which ~99.5% fire and ~0.5%
// are cancelled. schedule_fire therefore drives small bursts over many
// rounds; the cancel-heavy workloads below bracket the executor's rearm
// path, which dominates only in enqueue-storm phases.
constexpr std::size_t kBurst = 24;
constexpr std::size_t kRounds = 16384;
// Rearm workload shape: one pending completion per stream (a 4-context
// pool has 16 streams), several reschedules per actual completion.
constexpr std::size_t kStreams = 16;
constexpr std::size_t kRearmsPerFire = 4;
constexpr std::size_t kRearmEvents = 400000;

// Every callback carries a four-word payload. Like rt::Runner::arm_release's
// three-word capture (this, idx, at), that pushes the seed engine's
// std::function past its 16-byte SBO into one heap allocation per
// scheduled event, exactly as in real runs; the inplace buffer absorbs it.
struct Payload {
  std::uint64_t a = 1, b = 2, c = 3;
};

double best_events_per_sec(std::size_t events_per_run,
                           const std::function<void()>& run) {
  double best = 0.0;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (sec > 0.0) {
      best = std::max(best, static_cast<double>(events_per_run) / sec);
    }
  }
  return best;
}

/// Multiplicative-hash scatter so the heap sees realistic disorder.
SimTime scattered(std::size_t i) {
  return SimTime::from_ns(
      static_cast<std::int64_t>((i * 2654435761u) % 1000000));
}

struct CountFire {
  std::uint64_t* sink;
  Payload payload;
  void operator()() const { *sink += payload.a; }
};

struct AbortFire {
  Payload payload;
  void operator()() const { std::abort(); }
};

template <typename EngineT>
double bench_schedule_fire() {
  return best_events_per_sec(kBurst * kRounds, [] {
    EngineT e;
    std::uint64_t sink = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
      const SimTime base = e.now();
      for (std::size_t i = 0; i < kBurst; ++i) {
        e.schedule_at(base + scattered(i), CountFire{&sink, Payload{}});
      }
      e.run();
    }
    if (sink != kBurst * kRounds) std::abort();
  });
}

template <typename EngineT>
double bench_schedule_cancel() {
  return best_events_per_sec(kBurst * kRounds, [] {
    EngineT e;
    std::vector<typename EngineT::EventId> ids;
    ids.reserve(kBurst);
    for (std::size_t round = 0; round < kRounds; ++round) {
      const SimTime base = e.now();
      ids.clear();
      for (std::size_t i = 0; i < kBurst; ++i) {
        ids.push_back(e.schedule_at(base + scattered(i), AbortFire{}));
      }
      for (const auto id : ids) {
        if (!e.cancel(id)) std::abort();
      }
      e.run();
    }
  });
}

/// The executor's literal steady-state pattern: every kernel enqueue
/// cancels the pending completion event and re-arms it at the new earliest
/// finish time (Executor::reschedule), with an actual fire only once per
/// batch. Modeled as kStreams in-flight completions, kRearmsPerFire
/// cancel+schedule pairs between consecutive fires. Events/sec counts
/// scheduled events, fired or cancelled — the engine pays for each either
/// way.
template <typename EngineT>
struct Rearm {
  EngineT e;
  std::vector<typename EngineT::EventId> ev;
  std::uint64_t fired = 0;

  struct OnFire {
    Rearm* c;
    Payload payload;
    void operator()() const { ++c->fired; }
  };

  SimTime dt(std::size_t n) const {
    return SimTime::from_ns(
        static_cast<std::int64_t>(1 + ((n * 40503u) & 4095)));
  }

  void run() {
    ev.assign(kStreams, EngineT::kInvalidEvent);
    std::size_t scheduled = 0;
    std::size_t s = 0;
    for (std::size_t i = 0; i < kStreams; ++i) {
      ev[i] = e.schedule_after(dt(scheduled++), OnFire{this, Payload{}});
    }
    while (scheduled < kRearmEvents) {
      for (std::size_t r = 0; r < kRearmsPerFire; ++r) {
        e.cancel(ev[s]);  // stale if this stream's completion already fired
        ev[s] = e.schedule_after(dt(scheduled++), OnFire{this, Payload{}});
        s = (s + 1) % kStreams;
      }
      e.step();
    }
    e.run();
  }
};

template <typename EngineT>
double bench_completion_rearm() {
  return best_events_per_sec(kRearmEvents, [] {
    auto rearm = std::make_unique<Rearm<EngineT>>();
    rearm->run();
  });
}

/// The Monte-Carlo experiment layer's shape: several independent engines
/// running whole simulations concurrently on a thread pool (PR 3 runs one
/// per (cell, replication) job). Per-event allocator traffic that looks
/// cheap single-threaded turns into cross-thread arena pressure here; the
/// slab engine stays allocation-free per event regardless of neighbours.
template <typename EngineT>
double bench_parallel_sweep() {
  constexpr std::size_t kThreads = 4;
  return best_events_per_sec(kThreads * kBurst * kRounds, [] {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::size_t w = 0; w < kThreads; ++w) {
      workers.emplace_back([] {
        EngineT e;
        std::uint64_t sink = 0;
        for (std::size_t round = 0; round < kRounds; ++round) {
          const SimTime base = e.now();
          for (std::size_t i = 0; i < kBurst; ++i) {
            e.schedule_at(base + scattered(i), CountFire{&sink, Payload{}});
          }
          e.run();
        }
        if (sink != kBurst * kRounds) std::abort();
      });
    }
    for (auto& t : workers) t.join();
  });
}

struct Workload {
  const char* name;
  double (*seed)();
  double (*slab)();
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  const Workload workloads[] = {
      {"schedule_fire", bench_schedule_fire<bench::BaselineEngine>,
       bench_schedule_fire<sim::Engine>},
      {"schedule_cancel", bench_schedule_cancel<bench::BaselineEngine>,
       bench_schedule_cancel<sim::Engine>},
      {"completion_rearm", bench_completion_rearm<bench::BaselineEngine>,
       bench_completion_rearm<sim::Engine>},
      {"parallel_sweep", bench_parallel_sweep<bench::BaselineEngine>,
       bench_parallel_sweep<sim::Engine>},
  };

  bench::BenchReport report("engine");
  std::cout << "engine micro-benchmark (best of " << kReps
            << " reps, events/sec)\n";
  double log_ratio_sum = 0.0;
  std::size_t n_ratios = 0;
  for (const auto& w : workloads) {
    std::cerr << w.name << "...\n";
    const double seed = w.seed();
    const double slab = w.slab();
    const double ratio = seed > 0.0 ? slab / seed : 0.0;
    if (ratio > 0.0) {
      log_ratio_sum += std::log(ratio);
      ++n_ratios;
    }
    report.add(std::string(w.name), slab, "events/sec");
    report.add(std::string(w.name) + "_seed", seed, "events/sec");
    report.add(std::string(w.name) + "_speedup", ratio, "x");
    std::cout << "  " << w.name << ": " << static_cast<std::int64_t>(slab)
              << " vs seed " << static_cast<std::int64_t>(seed) << "  ("
              << metrics::Table::fmt(ratio, 2) << "x)\n";
  }
  const double overall =
      n_ratios > 0 ? std::exp(log_ratio_sum / static_cast<double>(n_ratios))
                   : 0.0;
  report.add("overall_speedup_geomean", overall, "x");
  std::cout << "  overall (geomean): "
            << metrics::Table::fmt(overall, 2) << "x\n";
  report.write(out_dir);
  return 0;
}
