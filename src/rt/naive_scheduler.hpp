// Naive baseline (paper Section V): pure spatial partitioning.
//
// What it lacks, by construction, is exactly what SGPRS adds:
//  * no seamless context switch — each task is statically pinned to one
//    context at admission (round-robin);
//  * no temporal partitioning — one stream per context, whole-network jobs
//    run back to back in FIFO order;
//  * no deadline awareness — late jobs run to completion, delaying every
//    job behind them (the domino effect the paper describes).
// A task keeps at most one job in flight; a release that finds the previous
// frame still pending is dropped (single frame buffer).
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "gpu/context_pool.hpp"
#include "rt/job.hpp"
#include "rt/job_pool.hpp"
#include "rt/scheduler.hpp"

namespace sgprs::rt {

struct NaiveConfig {
  int max_in_flight_per_task = 1;
  /// Host-side gap between consecutive jobs on a context: the blocking
  /// synchronize + frame handling that sequential framework execution pays
  /// between inferences (the paper's Section I: "coarse resource allocation
  /// and sequential execution in existing frameworks result in
  /// underutilization"). SGPRS overlaps this via its stream queues; the
  /// naive pipeline cannot. Set to zero for the idealized baseline.
  SimTime host_sync_gap = SimTime::from_ms(1.0);
};

class NaiveScheduler final : public Scheduler {
 public:
  NaiveScheduler(gpu::Executor& exec, const gpu::ContextPool& pool,
                 metrics::Collector& collector, NaiveConfig cfg = {});

  void admit(const Task& task, int slot) override;
  void release_job(const Task& task, int slot, SimTime now) override;
  int jobs_in_flight() const override {
    return static_cast<int>(jobs_.live());
  }
  int abort_in_flight() override;
  std::string name() const override { return "naive"; }
  /// The earliest pending host_sync_gap event.
  SimTime next_timer() const override {
    return sync_head_ == sync_timers_.size() ? SimTime::max()
                                              : sync_timers_[sync_head_];
  }

  /// Context the stream in `slot` was pinned to (introspection for tests).
  int task_context(int slot) const;

 private:
  struct CtxState {
    gpu::ContextId ctx;
    gpu::StreamId stream;
    bool busy = false;
    std::deque<Job*> fifo;
  };

  struct StreamState {
    int ctx = -1;  // pinned context index
    int in_flight = 0;
  };

  void try_dispatch(int ctx_idx, SimTime now);
  void on_job_complete(Job& job, int ctx_idx, SimTime now);

  gpu::Executor& exec_;
  metrics::Collector& collector_;
  NaiveConfig cfg_;
  std::vector<CtxState> contexts_;
  std::vector<StreamState> streams_;  // per stream slot
  JobPool jobs_;                      // stable addresses; O(1) retire
  // Fire times of the pending host_sync_gap events, stale ones included,
  // from sync_head_ on. Every one is scheduled a fixed gap after its
  // completion, so they fire in push order. A vector compacted in place
  // rather than a deque, so the job loop allocates nothing once it holds
  // as many timers as ever pend at once.
  std::vector<SimTime> sync_timers_;
  std::size_t sync_head_ = 0;
  int rr_next_ = 0;
  std::int64_t job_counter_ = 0;
};

}  // namespace sgprs::rt
