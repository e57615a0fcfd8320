// Scheduler interface shared by SGPRS and the naive baseline.
//
// The Runner owns the periodic release pattern and calls release_job() at
// each period tick; the scheduler owns everything downstream: admission /
// drop policy, context assignment, queueing, dispatch to executor streams,
// and reporting to the metrics collector.
// Each stream comes with a dense slot: its index in the runner (0, 1, ...
// in first-admission order; a returning stream keeps its slot), so
// per-stream state grows with the device's streams, not the fleet's task
// ids. Task ids still key every collector, tracer and job tag record.
#pragma once

#include <string>

#include "common/time.hpp"
#include "metrics/collector.hpp"
#include "rt/task.hpp"

namespace sgprs::obs {
class JobTracer;
}  // namespace sgprs::obs

namespace sgprs::rt {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Registers `task` in `slot`, a new one (one past the highest so far)
  /// or its own from before a retirement. Static assignment lives here.
  virtual void admit(const Task& task, int slot) = 0;

  /// A new job of the stream in `slot` is released at `now`.
  virtual void release_job(const Task& task, int slot, SimTime now) = 0;

  /// Jobs released but not yet completed or dropped.
  virtual int jobs_in_flight() const = 0;

  /// Device crash: discard every queued and dispatched job without
  /// completing or dropping it through the collector (a faulted job is its
  /// own outcome, not a deadline miss). Returns the number of jobs killed.
  /// Default no-op for schedulers that never run under the fault engine.
  virtual int abort_in_flight() { return 0; }

  virtual std::string name() const = 0;

  /// Time of the earliest event this scheduler has scheduled for itself and
  /// not yet seen fire, or SimTime::max() when none is pending. Apart from
  /// these timers, the runner's releases and the control plane's epochs,
  /// nothing makes a scheduler submit or purge, so the cluster bounds its
  /// device's contended chains by the three (docs/ARCHITECTURE.md
  /// § "Contended chains"). Decorators forward it.
  virtual SimTime next_timer() const { return SimTime::max(); }

  /// The scheduler that actually owns queues and jobs. Decorators (the
  /// fleet overload guard) forward to the wrapped instance so counter
  /// introspection (dynamic_cast to SgprsScheduler) keeps working.
  virtual const Scheduler* unwrap() const { return this; }

  /// Attaches this device's execution-span tracer (src/obs/span.hpp,
  /// --trace-spans); nullptr detaches. Decorators override to forward so
  /// the wrapped scheduler records release/dispatch/complete while the
  /// decorator records its own events (the overload guard's sheds). Off
  /// (the default) costs one null check per hook site.
  virtual void set_tracer(obs::JobTracer* tracer) { tracer_ = tracer; }

 protected:
  obs::JobTracer* tracer_ = nullptr;
};

}  // namespace sgprs::rt
