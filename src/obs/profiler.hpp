// Wall-clock phase profiler (--profile, docs/observability.md).
//
// RAII scoped timers around the runtime's coarse phases, aggregated per
// phase as count / total / max. Wall-clock only, by design: its output
// (the stderr table and the <report>_profile.json sidecar) varies from
// run to run and is explicitly excluded from the deterministic
// byte-compare set — attaching a profiler never changes a single byte of
// the report, series, trace or span artifacts (pinned by
// tests/obs/profiler_test.cpp).
//
// Single-threaded by contract: every scope opens and closes on the
// control thread (the parallel shard waves are timed from outside the
// barrier, as one kShardPhase scope).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>

namespace sgprs::obs {

class PhaseProfiler {
 public:
  enum class Phase : int {
    kSetup = 0,        // cluster build, prototype profiling, initial place
    kShardPhase,       // one parallel shard wave (barrier to barrier)
    kControlPhase,     // one serial control-plane instant
    kEngineRun,        // the whole epoch loop (any shard count)
    kPlacerBatch,      // drain / failover batched re-placement
    kCollectorReduce,  // canonical per-device collector reduction
    kSpanExport,       // span-file rendering (--trace-spans)
    kReportWrite,      // report / series writers
    kRun,              // the whole run (CLI-level envelope)
    kCount,
  };
  static constexpr int kPhases = static_cast<int>(Phase::kCount);
  static const char* phase_name(Phase p);

  struct Stat {
    std::int64_t count = 0;
    double total_s = 0.0;
    double max_s = 0.0;
  };

  /// Null-safe RAII timer: a Scope on a null profiler never reads the
  /// clock, so instrumented code paths cost one branch when profiling is
  /// off.
  class Scope {
   public:
    Scope(PhaseProfiler* profiler, Phase phase) : profiler_(profiler) {
      if (profiler_) {
        phase_ = phase;
        start_ = std::chrono::steady_clock::now();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (profiler_) {
        const std::chrono::duration<double> d =
            std::chrono::steady_clock::now() - start_;
        profiler_->add(phase_, d.count());
      }
    }

   private:
    PhaseProfiler* profiler_;
    Phase phase_ = Phase::kSetup;
    std::chrono::steady_clock::time_point start_;
  };

  void add(Phase p, double seconds);
  const Stat& stat(Phase p) const {
    return stats_[static_cast<int>(p)];
  }

  /// Human-readable per-phase table (only phases that fired).
  void print(std::ostream& out) const;
  /// Machine-readable sidecar ("<report>_profile.json").
  void write_json(std::ostream& out) const;

 private:
  std::array<Stat, kPhases> stats_{};
};

}  // namespace sgprs::obs
