// Drives a simulation: job releases for a task set (periodic or sporadic
// per task's ArrivalModel), a scheduler, and a bounded run.
//
// Tasks can be admitted up front (the classic closed-world constructor) or
// churned mid-run: add_task() admits and arms a task while the engine is
// running, retire_task() cancels the pending release through the engine's
// generation-tagged calendar so no stale release ever fires. In-flight jobs
// of a retired task drain through the scheduler normally — retirement stops
// *future* releases, it never yanks work already released.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "rt/scheduler.hpp"
#include "sim/engine.hpp"

namespace sgprs::rt {

struct RunnerConfig {
  SimTime duration = SimTime::from_sec(3.0);
  /// Seeds each sporadic task's arrival rng, with the task id.
  std::uint64_t jitter_seed = 99;
};

class Runner {
 public:
  /// Tasks must outlive the runner. Admits every task immediately.
  Runner(sim::Engine& engine, Scheduler& scheduler,
         const std::vector<Task>& tasks, RunnerConfig cfg);

  /// Empty runner for open-world (fleet) use: admit tasks with add_task().
  Runner(sim::Engine& engine, Scheduler& scheduler, RunnerConfig cfg);

  /// Admits one task (scheduler admission + arrival-rng setup). The task
  /// must outlive the runner and its id must be unique within this runner.
  /// Before start(): the first release is armed by start() at task.phase.
  /// After start(): the first release is armed at now + task.phase, so a
  /// dynamically admitted stream starts its cadence at admission time.
  void add_task(const Task& task);

  /// Stops future releases of the task: cancels the pending release event
  /// (O(1), generation-checked) and deactivates the stream. Jobs already
  /// released keep flowing through the scheduler. Returns false when the
  /// id is unknown or already retired. The Task object itself must stay
  /// alive until jobs in flight have drained (the fleet runtime keeps all
  /// task storage alive for the whole run).
  bool retire_task(int task_id);

  /// Arms the first release of every task without running the engine.
  /// For multi-runner setups (one runner per cluster device sharing one
  /// engine): start() every runner, then run the engine once.
  void start();

  /// start() + runs the engine until the configured duration, leaving the
  /// clock exactly there.
  void run();

  /// Time of the earliest pending release, or SimTime::max() when none is
  /// armed. Nothing this runner does reaches its scheduler before then;
  /// cluster::Cluster bounds its device's contended chains by it.
  SimTime next_release() const;

  std::int64_t releases_issued() const { return releases_; }
  /// Admitted minus retired (streams still releasing).
  int active_tasks() const { return active_; }

 private:
  /// Per-task runner state, indexed by admission order (dense, hot-path
  /// friendly); the index is the stream's scheduler slot. The sporadic
  /// arrival rng is seeded from (jitter_seed, task id) — never from
  /// admission order — so a stream's draw sequence is identical whether it
  /// was present at t=0 or churned in later.
  struct TaskState {
    const Task* task = nullptr;
    common::Rng arrival_rng;  // sporadic draws only; periodic never touches
    sim::EventId pending = sim::kInvalidEvent;
    SimTime pending_at = SimTime::max();  // fire time of `pending`
    bool active = true;
  };

  /// Admits `task` and returns its states_ index. A live duplicate id is a
  /// hard error; re-admitting a *retired* id (a failed-over stream coming
  /// back to an earlier home) reuses the old slot in place — pending
  /// release lambdas capture indices, so states_ never shrinks or
  /// reorders, and a scheduler slot always names the same stream.
  std::size_t admit_checked(const Task& task);
  void arm_release(std::size_t idx, SimTime at);
  /// Gap from this release to the next: the period for periodic tasks, a
  /// per-task-seeded uniform draw in [min_separation, max_separation] for
  /// sporadic ones (deterministic regardless of event interleaving).
  SimTime next_interarrival(TaskState& ts);

  sim::Engine& engine_;
  Scheduler& scheduler_;
  RunnerConfig cfg_;
  std::vector<TaskState> states_;
  std::int64_t releases_ = 0;
  int active_ = 0;
  bool started_ = false;
};

}  // namespace sgprs::rt
