#include "rt/naive_scheduler.hpp"

#include "common/check.hpp"
#include "obs/span.hpp"

namespace sgprs::rt {

NaiveScheduler::NaiveScheduler(gpu::Executor& exec,
                               const gpu::ContextPool& pool,
                               metrics::Collector& collector, NaiveConfig cfg)
    : exec_(exec), collector_(collector), cfg_(cfg) {
  SGPRS_CHECK(cfg_.max_in_flight_per_task >= 1);
  // Sized once: the pool is fixed for the scheduler's lifetime.
  contexts_.reserve(pool.contexts().size());
  for (const auto& pc : pool.contexts()) {
    CtxState& cs = contexts_.emplace_back();
    cs.ctx = pc.ctx;
    // The naive scheduler uses a single stream per context; take the first
    // stream the pool created, whatever its priority.
    SGPRS_CHECK_MSG(!pc.high_streams.empty() || !pc.low_streams.empty(),
                    "pool context has no streams");
    cs.stream = pc.high_streams.empty() ? pc.low_streams.front()
                                        : pc.high_streams.front();
  }
  SGPRS_CHECK(!contexts_.empty());
  sync_timers_.reserve(contexts_.size());
}

void NaiveScheduler::admit(const Task& /*task*/, int slot) {
  SGPRS_CHECK_MSG(slot >= 0 && slot <= static_cast<int>(streams_.size()),
                  "stream slot " << slot << " is not dense");
  // A returning stream keeps its slot's in-flight count.
  if (slot == static_cast<int>(streams_.size())) streams_.emplace_back();
  // Static spatial assignment: round-robin, never revisited.
  streams_[slot].ctx = rr_next_;
  rr_next_ = (rr_next_ + 1) % static_cast<int>(contexts_.size());
}

int NaiveScheduler::task_context(int slot) const {
  SGPRS_CHECK_MSG(slot >= 0 && slot < static_cast<int>(streams_.size()),
                  "slot was never admitted");
  return streams_[slot].ctx;
}

void NaiveScheduler::release_job(const Task& task, int slot, SimTime now) {
  SGPRS_CHECK_MSG(slot >= 0 && slot < static_cast<int>(streams_.size()),
                  "release before admit");
  StreamState& stream = streams_[slot];
  collector_.on_release(task.id, now);
  if (tracer_) tracer_->release(task.id, now);
  if (stream.in_flight >= cfg_.max_in_flight_per_task) {
    collector_.on_drop(task.id, now);  // frame buffer still full
    if (tracer_) tracer_->drop(task.id, now, now);
    return;
  }
  ++stream.in_flight;
  Job& job = jobs_.acquire();
  job.task = &task;
  job.slot = slot;
  job.index = job_counter_++;
  job.release = now;
  job.abs_deadline = now + task.deadline;
  contexts_[stream.ctx].fifo.push_back(&job);
  try_dispatch(stream.ctx, now);
}

void NaiveScheduler::try_dispatch(int ctx_idx, SimTime now) {
  CtxState& cs = contexts_[ctx_idx];
  if (cs.busy || cs.fifo.empty()) return;
  Job* job = cs.fifo.front();
  cs.fifo.pop_front();
  cs.busy = true;
  job->last_ctx = ctx_idx;
  // Single whole-network dispatch: this is always the job's first (and
  // only) move from queue to execution.
  if (tracer_) tracer_->dispatch(job->task->id, job->release, now);

  // Whole-network execution, no stage-level scheduling: every stage
  // program of the job in order on the single stream, the callback on the
  // last. The submissions queue back to back, so a lone stream still runs
  // the whole job as one solo chain.
  const auto& stages = job->task->stages();
  for (std::size_t i = 0; i + 1 < stages.size(); ++i) {
    exec_.enqueue_program(cs.stream, *stages[i].program, job->tag(), {});
  }
  exec_.enqueue_program(cs.stream, *stages.back().program, job->tag(),
                        [this, job, ctx_idx](SimTime t) {
                          on_job_complete(*job, ctx_idx, t);
                        });
}

void NaiveScheduler::on_job_complete(Job& job, int ctx_idx, SimTime now) {
  collector_.on_complete(job.task->id, job.release, job.abs_deadline, now);
  if (tracer_) tracer_->complete(job.task->id, job.release, now);
  --streams_[job.slot].in_flight;
  jobs_.release(job);
  // The context frees only after the host round-trip (synchronize + frame
  // handling); the next job cannot be dispatched into that gap.
  if (cfg_.host_sync_gap > SimTime::zero()) {
    if (sync_timers_.size() == sync_timers_.capacity()) {
      sync_timers_.erase(sync_timers_.begin(),
                         sync_timers_.begin() + sync_head_);
      sync_head_ = 0;
    }
    sync_timers_.push_back(exec_.engine().now() + cfg_.host_sync_gap);
    exec_.engine().schedule_at(sync_timers_.back(), [this, ctx_idx] {
      ++sync_head_;
      contexts_[ctx_idx].busy = false;
      try_dispatch(ctx_idx, exec_.engine().now());
    });
  } else {
    contexts_[ctx_idx].busy = false;
    try_dispatch(ctx_idx, now);
  }
}

int NaiveScheduler::abort_in_flight() {
  // Device crash: drop queued and running jobs without collector closes.
  // A stale host_sync_gap event may still fire afterwards; with the fifo
  // cleared and busy already false it is a harmless no-op.
  for (auto& cs : contexts_) {
    cs.fifo.clear();
    cs.busy = false;
  }
  exec_.purge_all();
  const int killed = static_cast<int>(jobs_.release_all());
  for (auto& stream : streams_) stream.in_flight = 0;
  return killed;
}

}  // namespace sgprs::rt
