// Test-only oracle: the per-kernel processor-sharing executor, kept
// verbatim from before gpu::Executor learned to advance solo kernel chains
// analytically (docs/ARCHITECTURE.md § "Solo chains").
//
// Every kernel completion is its own calendar event here, and every kernel
// boundary recomputes every running kernel's share. The differential tests
// in executor_chain_test.cpp run it beside gpu::Executor and require the same
// callback times and order, the same work and busy-SM integrals bit for bit,
// and the same trace-sink sequence — exactly as engine_slab_test.cpp's
// multimap reference serves the event calendar.
//
// Do not maintain this file: it is a measurement oracle, not a fallback.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "gpu/device.hpp"
#include "gpu/executor.hpp"
#include "gpu/kernel.hpp"
#include "gpu/sharing.hpp"
#include "gpu/speedup.hpp"
#include "gpu/trace.hpp"
#include "sim/engine.hpp"

namespace sgprs::gpu::reference {

namespace detail {

// Work below this many 1-SM seconds counts as finished (guards against
// floating-point residue after integer-nanosecond event rounding).
constexpr double kWorkEpsilon = 1e-12;

}  // namespace detail

class ReferenceExecutor {
 public:
  /// The per-kernel executor predates InplaceFunction callbacks.
  using CompletionFn = std::function<void(SimTime)>;

  ReferenceExecutor(sim::Engine& engine, DeviceSpec device,
                    SpeedupModel speedup, SharingParams sharing);

  ReferenceExecutor(const ReferenceExecutor&) = delete;
  ReferenceExecutor& operator=(const ReferenceExecutor&) = delete;

  /// Creates a context limited to `sm_limit` SMs. The pool may be
  /// over-subscribed: no check against the device total (that is the point).
  ContextId create_context(int sm_limit);

  /// Creates a stream in `ctx` with the given priority.
  StreamId create_stream(ContextId ctx, StreamPriority priority);

  /// Enqueues one kernel; `on_done` (optional) fires at completion.
  void enqueue(StreamId stream, KernelDesc kernel, CompletionFn on_done);

  /// Enqueues a batch in order; `on_all_done` fires when the last kernel
  /// completes. The batch must be non-empty.
  void enqueue_batch(StreamId stream, std::vector<KernelDesc> kernels,
                     CompletionFn on_all_done);

  /// Device crash: drops every queued and running kernel without firing
  /// completion callbacks or crediting the lost residue to work_done_.
  /// Progress up to now is integrated first, so utilization accounting
  /// stays exact; the pending completion event is cancelled. Contexts and
  /// streams survive (a recovered device reuses them).
  void purge_all();

  // --- Introspection (used by schedulers and tests) ---
  int context_count() const { return static_cast<int>(contexts_.size()); }
  int stream_count() const { return static_cast<int>(streams_.size()); }
  int context_sm_limit(ContextId c) const;
  ContextId stream_context(StreamId s) const;
  StreamPriority stream_priority(StreamId s) const;
  /// Kernels queued behind the running one (running kernel not counted).
  std::size_t stream_queue_length(StreamId s) const;
  bool stream_busy(StreamId s) const;
  /// Number of kernels currently executing device-wide.
  int running_kernel_count() const;
  /// Number of kernels currently executing in a context.
  int context_running_count(ContextId c) const;
  /// Total 1-SM work completed so far (for utilization accounting).
  double total_work_done() const { return work_done_; }
  /// Integral over time of (granted SMs of running kernels), in SM-seconds.
  double busy_sm_seconds() const;
  /// Estimated remaining time of the kernel running on `s` at current rates
  /// (SimTime::max() if the stream is idle). Queued kernels not included.
  SimTime running_remaining(StreamId s) const;

  const DeviceSpec& device() const { return device_; }
  const SpeedupModel& speedup_model() const { return speedup_; }
  const SharingParams& sharing_params() const { return sharing_; }
  sim::Engine& engine() { return engine_; }

  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

 private:
  struct Running {
    KernelDesc desc;
    CompletionFn on_done;
    double rem_overhead = 0.0;  // seconds at unit rate
    double rem_work = 0.0;      // 1-SM seconds
    double rate = 0.0;          // work per second at last reschedule
    double granted_sms = 0.0;
  };

  struct Pending {
    KernelDesc desc;
    CompletionFn on_done;
  };

  struct Stream {
    ContextId ctx;
    StreamPriority priority;
    std::deque<Pending> queue;
    std::unique_ptr<Running> running;  // null when idle
  };

  struct Context {
    int sm_limit;
    int running_count = 0;
  };

  // Consumes elapsed time since the last update against stored rates.
  void advance_progress();
  // Recomputes all shares/rates and schedules the next completion event.
  void reschedule();
  void start_next(StreamId s);
  void on_completion_event();
  double priority_weight(StreamPriority p) const;

  sim::Engine& engine_;
  DeviceSpec device_;
  SpeedupModel speedup_;
  SharingParams sharing_;
  TraceSink* trace_ = nullptr;

  std::vector<Context> contexts_;
  std::vector<Stream> streams_;

  SimTime last_update_ = SimTime::zero();
  sim::EventId completion_event_ = sim::kInvalidEvent;
  double work_done_ = 0.0;
  double busy_sm_seconds_ = 0.0;
  int running_count_ = 0;
  // Re-entrancy guard: completion callbacks may enqueue; defer rescheduling
  // until the outermost mutation finishes.
  int defer_depth_ = 0;
  bool needs_reschedule_ = false;
};

inline ReferenceExecutor::ReferenceExecutor(sim::Engine& engine,
                                            DeviceSpec device,
                                            SpeedupModel speedup,
                                            SharingParams sharing)
    : engine_(engine),
      device_(std::move(device)),
      speedup_(std::move(speedup)),
      sharing_(sharing),
      last_update_(engine.now()) {}

inline ContextId ReferenceExecutor::create_context(int sm_limit) {
  SGPRS_CHECK_MSG(sm_limit > 0 && sm_limit <= device_.total_sms,
                  "context SM limit must be in [1, total_sms]");
  contexts_.push_back(Context{sm_limit});
  return static_cast<ContextId>(contexts_.size() - 1);
}

inline StreamId ReferenceExecutor::create_stream(ContextId ctx,
                                                StreamPriority priority) {
  SGPRS_CHECK(ctx >= 0 && ctx < context_count());
  Stream s;
  s.ctx = ctx;
  s.priority = priority;
  streams_.push_back(std::move(s));
  return static_cast<StreamId>(streams_.size() - 1);
}

inline int ReferenceExecutor::context_sm_limit(ContextId c) const {
  SGPRS_CHECK(c >= 0 && c < context_count());
  return contexts_[c].sm_limit;
}

inline ContextId ReferenceExecutor::stream_context(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  return streams_[s].ctx;
}

inline StreamPriority ReferenceExecutor::stream_priority(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  return streams_[s].priority;
}

inline std::size_t ReferenceExecutor::stream_queue_length(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  return streams_[s].queue.size();
}

inline bool ReferenceExecutor::stream_busy(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  return streams_[s].running != nullptr || !streams_[s].queue.empty();
}

inline int ReferenceExecutor::running_kernel_count() const {
  return running_count_;
}

inline int ReferenceExecutor::context_running_count(ContextId c) const {
  SGPRS_CHECK(c >= 0 && c < context_count());
  return contexts_[c].running_count;
}

inline double ReferenceExecutor::busy_sm_seconds() const {
  // Up to date only as of last_update_; good enough for end-of-run stats.
  return busy_sm_seconds_;
}

inline SimTime ReferenceExecutor::running_remaining(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  const auto& run = streams_[s].running;
  if (!run) return SimTime::max();
  const double elapsed = (engine_.now() - last_update_).to_sec();
  double rem_over = std::max(0.0, run->rem_overhead - elapsed);
  double consumed = std::max(0.0, elapsed - run->rem_overhead);
  double rem_work = std::max(0.0, run->rem_work - consumed * run->rate);
  const double rate = run->rate > 0.0 ? run->rate : 1e-9;
  return SimTime::from_sec(rem_over + rem_work / rate);
}

inline void ReferenceExecutor::enqueue(StreamId stream, KernelDesc kernel,
                                        CompletionFn on_done) {
  SGPRS_CHECK(stream >= 0 && stream < stream_count());
  SGPRS_CHECK(kernel.work_sm_seconds >= 0.0);
  SGPRS_CHECK(kernel.overhead_seconds >= 0.0);
  Stream& s = streams_[stream];
  s.queue.push_back(Pending{std::move(kernel), std::move(on_done)});
  if (!s.running) {
    advance_progress();
    start_next(stream);
    reschedule();
  }
}

inline void ReferenceExecutor::enqueue_batch(StreamId stream,
                                              std::vector<KernelDesc> kernels,
                                              CompletionFn on_all_done) {
  SGPRS_CHECK_MSG(!kernels.empty(), "enqueue_batch requires >= 1 kernel");
  const std::size_t last = kernels.size() - 1;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    enqueue(stream, std::move(kernels[i]),
            i == last ? std::move(on_all_done) : CompletionFn{});
  }
}

inline void ReferenceExecutor::purge_all() {
  // Credit busy-SM time and work completed up to the crash instant, then
  // drop everything in flight on the floor: no callbacks, no trace end
  // events, no work_done_ for the unfinished residue.
  advance_progress();
  for (auto& s : streams_) {
    s.queue.clear();
    if (s.running) {
      s.running.reset();
      --running_count_;
      --contexts_[s.ctx].running_count;
    }
  }
  SGPRS_CHECK(running_count_ == 0);
  if (completion_event_ != sim::kInvalidEvent) {
    engine_.cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  needs_reschedule_ = false;
}

inline double ReferenceExecutor::priority_weight(StreamPriority p) const {
  return p == StreamPriority::kHigh ? sharing_.high_priority_weight
                                    : sharing_.low_priority_weight;
}

inline void ReferenceExecutor::advance_progress() {
  const SimTime now = engine_.now();
  const double elapsed = (now - last_update_).to_sec();
  last_update_ = now;
  if (elapsed <= 0.0 || running_count_ == 0) return;
  for (auto& s : streams_) {
    if (!s.running) continue;
    Running& r = *s.running;
    double dt = elapsed;
    if (r.rem_overhead > 0.0) {
      const double t = std::min(dt, r.rem_overhead);
      r.rem_overhead -= t;
      dt -= t;
    }
    if (dt > 0.0) {
      const double done = std::min(r.rem_work, dt * r.rate);
      r.rem_work -= done;
      work_done_ += done;
    }
    busy_sm_seconds_ += elapsed * r.granted_sms;
  }
}

inline void ReferenceExecutor::start_next(StreamId sid) {
  Stream& s = streams_[sid];
  SGPRS_CHECK(!s.running);
  if (s.queue.empty()) return;
  Pending p = std::move(s.queue.front());
  s.queue.pop_front();
  auto r = std::make_unique<Running>();
  r->desc = std::move(p.desc);
  r->on_done = std::move(p.on_done);
  r->rem_overhead = r->desc.overhead_seconds;
  r->rem_work = r->desc.work_sm_seconds;
  s.running = std::move(r);
  ++running_count_;
  ++contexts_[s.ctx].running_count;
  if (trace_) {
    trace_->on_kernel_start(engine_.now(), s.ctx, sid, s.running->desc);
  }
}

inline void ReferenceExecutor::reschedule() {
  if (defer_depth_ > 0) {
    needs_reschedule_ = true;
    return;
  }
  // Collect running kernels into share requests.
  std::vector<ShareRequest> reqs;
  std::vector<StreamId> req_stream;
  reqs.reserve(static_cast<std::size_t>(running_count_));
  for (StreamId sid = 0; sid < stream_count(); ++sid) {
    const Stream& s = streams_[sid];
    if (!s.running) continue;
    reqs.push_back(
        ShareRequest{s.ctx, priority_weight(s.priority), s.running->desc.op});
    req_stream.push_back(sid);
  }

  if (completion_event_ != sim::kInvalidEvent) {
    engine_.cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  if (reqs.empty()) return;

  std::vector<int> ctx_sms;
  ctx_sms.reserve(contexts_.size());
  for (const auto& c : contexts_) ctx_sms.push_back(c.sm_limit);

  const auto grants =
      compute_shares(speedup_, device_.total_sms, ctx_sms, reqs, sharing_);

  double min_finish = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Running& r = *streams_[req_stream[i]].running;
    r.rate = grants[i].rate;
    r.granted_sms = grants[i].sms;
    SGPRS_CHECK(r.rate > 0.0);
    const double finish = r.rem_overhead + r.rem_work / r.rate;
    min_finish = std::min(min_finish, finish);
  }

  // Round the completion up to the next nanosecond so the event never fires
  // before the kernel's exact finish instant.
  auto delta = SimTime::from_ns(
      static_cast<std::int64_t>(std::ceil(min_finish * 1e9)));
  completion_event_ = engine_.schedule_after(
      std::max(delta, SimTime::from_ns(0)), [this] { on_completion_event(); });
}

inline void ReferenceExecutor::on_completion_event() {
  completion_event_ = sim::kInvalidEvent;
  advance_progress();

  // Collect every kernel that has finished (several can tie).
  std::vector<StreamId> finished;
  for (StreamId sid = 0; sid < stream_count(); ++sid) {
    Stream& s = streams_[sid];
    if (s.running && s.running->rem_overhead <= 0.0 &&
        s.running->rem_work <= detail::kWorkEpsilon) {
      finished.push_back(sid);
    }
  }
  SGPRS_CHECK_MSG(!finished.empty(),
                  "completion event fired with no finished kernel");

  // Retire finished kernels and start successors before firing callbacks so
  // that callbacks observe a consistent executor state.
  std::vector<std::pair<CompletionFn, KernelDesc>> callbacks;
  for (StreamId sid : finished) {
    Stream& s = streams_[sid];
    Running& r = *s.running;
    work_done_ += r.rem_work;  // residue below epsilon
    if (trace_) trace_->on_kernel_end(engine_.now(), s.ctx, sid, r.desc);
    callbacks.emplace_back(std::move(r.on_done), std::move(r.desc));
    s.running.reset();
    --running_count_;
    --contexts_[s.ctx].running_count;
    start_next(sid);
  }

  ++defer_depth_;
  const SimTime now = engine_.now();
  for (auto& [fn, desc] : callbacks) {
    if (fn) fn(now);
  }
  --defer_depth_;
  needs_reschedule_ = false;
  reschedule();
}

}  // namespace sgprs::gpu::reference
