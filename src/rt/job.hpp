// Run-time job state (one job = one frame of a task).
//
// A Job tracks one release through its stage chain: the per-stage absolute
// virtual deadlines assigned at release, which stage runs next, whether a
// predecessor missed (driving the medium-priority promotion), and the last
// context used (driving the migration counter). Schedulers own Jobs; the
// Task stays immutable shared state.
#pragma once

#include <cstdint>
#include <vector>

#include "rt/task.hpp"

namespace sgprs::rt {

struct Job {
  const Task* task = nullptr;
  int slot = -1;  // the stream's slot on its device (Scheduler::admit)
  std::int64_t index = 0;  // job number within its task
  SimTime release;
  SimTime abs_deadline;
  /// Absolute virtual deadlines per stage (release + cumulative offsets),
  /// assigned online at release (paper Section IV-B1).
  std::vector<SimTime> stage_deadlines;
  int next_stage = 0;
  /// True once any completed stage finished after its virtual deadline;
  /// makes the *following* low-priority stage medium (Section IV-B3).
  bool predecessor_missed = false;
  /// Context the previous stage ran on (-1 before the first dispatch);
  /// used to count seamless partition switches.
  int last_ctx = -1;
  /// Slot in the owning rt::JobPool (-1 when not pool-managed).
  std::int32_t pool_slot = -1;

  /// Stable identifier for traces: task id in the high bits.
  std::uint64_t tag() const {
    return (static_cast<std::uint64_t>(task->id) << 32) |
           (static_cast<std::uint64_t>(index) & 0xffffffffu);
  }

  /// Back to the freshly-constructed state, except stage_deadlines keeps
  /// its capacity — the point of pooling jobs instead of reallocating them.
  void reset() {
    task = nullptr;
    slot = -1;
    index = 0;
    release = SimTime{};
    abs_deadline = SimTime{};
    stage_deadlines.clear();
    next_stage = 0;
    predecessor_missed = false;
    last_ctx = -1;
    pool_slot = -1;
  }
};

}  // namespace sgprs::rt
