#include "rt/runner.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace sgprs::rt {

Runner::Runner(sim::Engine& engine, Scheduler& scheduler, RunnerConfig cfg)
    : engine_(engine), scheduler_(scheduler), cfg_(cfg) {
  SGPRS_CHECK(cfg_.duration > SimTime::zero());
}

Runner::Runner(sim::Engine& engine, Scheduler& scheduler,
               const std::vector<Task>& tasks, RunnerConfig cfg)
    : Runner(engine, scheduler, cfg) {
  for (const auto& t : tasks) admit_checked(t);
}

std::size_t Runner::admit_checked(const Task& t) {
  if (t.arrival == ArrivalModel::kSporadic) {
    // Compare against the *effective* minimum (the period when unset) so
    // a max below the defaulted min is rejected, not silently dropped.
    const SimTime min_gap = t.min_separation > SimTime::zero()
                                ? t.min_separation
                                : t.period;
    SGPRS_CHECK_MSG(t.max_separation == SimTime::zero() ||
                        min_gap <= t.max_separation,
                    "sporadic min_separation must not exceed "
                    "max_separation for task " << t.name);
  }
  // A retired id coming back (failover returned the stream to a device
  // that hosted it before) takes its old slot; any other id a new one.
  std::size_t slot = 0;
  while (slot < states_.size() && states_[slot].task->id != t.id) ++slot;
  SGPRS_CHECK_MSG(slot == states_.size() || !states_[slot].active,
                  "duplicate task id " << t.id << " admitted to runner");
  scheduler_.admit(t, static_cast<int>(slot));
  if (slot == states_.size()) states_.emplace_back();
  TaskState& ts = states_[slot];
  ts.task = &t;
  if (t.arrival == ArrivalModel::kSporadic) {
    // Seed per task so the draw sequence is a function of (seed, task id)
    // alone — never of admission order, event interleaving or (in sharded
    // fleet runs) which shard the hosting device landed on.
    ts.arrival_rng.reseed(common::stream_seed(cfg_.jitter_seed, t.id));
  }
  ts.active = true;
  ++active_;
  return slot;
}

void Runner::add_task(const Task& task) {
  const std::size_t idx = admit_checked(task);
  if (started_) {
    arm_release(idx, engine_.now() + task.phase);
  }
}

bool Runner::retire_task(int task_id) {
  for (auto& ts : states_) {
    if (ts.task->id != task_id) continue;
    if (!ts.active) return false;
    ts.active = false;
    --active_;
    if (ts.pending != sim::kInvalidEvent) {
      engine_.cancel(ts.pending);  // stale-safe: generation-tagged
      ts.pending = sim::kInvalidEvent;
      ts.pending_at = SimTime::max();
    }
    return true;
  }
  return false;
}

SimTime Runner::next_interarrival(TaskState& ts) {
  const Task& task = *ts.task;
  if (task.arrival == ArrivalModel::kPeriodic) return task.period;
  const SimTime lo = task.min_separation > SimTime::zero()
                         ? task.min_separation
                         : task.period;
  const SimTime hi = task.max_separation > lo ? task.max_separation : lo;
  if (hi == lo) return lo;
  return lo + SimTime::from_ns(static_cast<std::int64_t>(
                  ts.arrival_rng.next_double() *
                  static_cast<double>((hi - lo).ns)));
}

SimTime Runner::next_release() const {
  SimTime next = SimTime::max();
  for (const TaskState& ts : states_) next = std::min(next, ts.pending_at);
  return next;
}

void Runner::arm_release(std::size_t idx, SimTime at) {
  TaskState& ts = states_[idx];
  ts.pending = sim::kInvalidEvent;
  ts.pending_at = SimTime::max();
  if (at >= cfg_.duration) return;  // stop releasing at the horizon
  ts.pending_at = at;
  ts.pending = engine_.schedule_at(at, [this, idx, at] {
    TaskState& s = states_[idx];
    s.pending = sim::kInvalidEvent;
    s.pending_at = SimTime::max();
    if (!s.active) return;  // retired between schedule and fire
    ++releases_;
    scheduler_.release_job(*s.task, static_cast<int>(idx), at);
    arm_release(idx, at + next_interarrival(s));
  });
}

void Runner::start() {
  SGPRS_CHECK_MSG(!started_, "Runner::start() called twice");
  started_ = true;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    arm_release(i, states_[i].task->phase);
  }
}

void Runner::run() {
  start();
  engine_.run_until(cfg_.duration);
}

}  // namespace sgprs::rt
