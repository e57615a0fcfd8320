// Processor-sharing GPU executor (discrete-event).
//
// Owns contexts, streams and running kernels; integrates with sim::Engine.
// Kernels have two phases: a launch-overhead phase that progresses at unit
// rate regardless of SMs, then a work phase progressing at rate
// speedup(op, granted_sms) * contention factors. Whenever the set of
// running kernels changes, all progress rates are recomputed from the
// sharing model and the single pending completion event is rescheduled.
//
// Streams are FIFO: at most one kernel of a stream runs at a time; the rest
// wait in the stream's queue. This mirrors CUDA stream semantics and is what
// the scheduler layers on top of (it submits one *stage* — a kernel batch —
// per stream at a time).
//
// Stage programs: a queue entry is (program, next kernel, tag, callback).
// Schedulers submit a task stage's shared, immutable gpu::KernelProgram
// with enqueue_program, so a dispatch copies no kernel; enqueue and
// enqueue_batch wrap their kernels in a program the entry owns. The trace
// sink sees each kernel under its submission's tag.
//
// Solo chains: while exactly one kernel runs on the device, no share can
// change until that stream's own kernel boundaries, so the executor does
// not fire one event per kernel. It schedules one event at the end of the
// first queued kernel that carries a completion callback (the stage end);
// entries pushed behind an armed chain that has no callback yet extend it.
// The callback-free kernels in between are retired lazily by catch_up() —
// at that event, when an enqueue starts another stream, on purge_all() and
// in the introspection getters. Per (program, solo class) — a priority on
// contexts of one SM limit — the executor memoises each kernel's solo
// duration and its work and busy-SM increments from a cold start, plus the
// durations' suffix sums: arming a
// chain costs one lookup per queue entry, and catch_up replays the
// increments in the per-kernel path's order, materialising a running kernel
// only where it stops. Every callback time, work and busy-SM integral and
// trace-sink event is bit-identical to the per-kernel path.
// docs/ARCHITECTURE.md § "Solo chains" and § "Stage programs" are the
// design notes; the per-kernel oracle lives in
// tests/gpu/reference_executor.hpp.
//
// Contended shares: with two or more kernels running, every boundary
// re-splits the SMs, but compute_shares is a pure function of the running
// set — each stream's running op class, since a stream's context and
// priority, the context SM limits and the sharing parameters are fixed.
// The executor memoises its grants keyed by that set, so a repeated set
// costs one lookup and returns the exact doubles a fresh call would. The
// running set is a bitset of streams, walked in stream order, and the memo
// key (one byte per stream) is kept in place with an XOR hash of its
// running streams' terms: start_next and each retirement update both, so a
// lookup neither rebuilds nor rehashes the key, and every per-boundary
// pass visits only the running kernels. Every scratch buffer of the
// completion path belongs to this executor, and after warm-up a contended
// completion touches no allocator. docs/ARCHITECTURE.md § "Contended
// shares" is the design note.
//
// Contended chains: with two or more kernels running, a completion event
// that has fired its callbacks does not post an event for every following
// boundary. It steps each boundary in place — advance_progress, the retire
// loop, start_next and contended_grants, the per-kernel path's operations
// in its order — while the boundary lies strictly before the input bound
// (set_input_bound): the earliest instant anything from outside can reach
// the executor. A stepped boundary that retires a kernel with a callback
// holds the callbacks and posts one event at that instant, which fires
// them and steps on. Nothing foreign arrives before the bound, so stepped
// state never runs ahead of an input and no rollback is needed; an entry
// point reached while last_update_ is past now() is a CHECK failure.
// docs/ARCHITECTURE.md § "Contended chains" is the design note.
//
// Device-class memos: the solo-grant, solo-step and share memos live in a
// gpu::DeviceClassMemo (device_class_memo.hpp), not in the executor. Every
// entry is a pure function of the device class — SM count, speedup model,
// sharing parameters, context SM limits, each stream's (context, priority)
// — so cluster::Cluster attaches one memo per (shard, device type) to all
// its executors of that type, and an executor built elsewhere owns one. The
// pointer is bound once, at attach_memo; a hit returns the same doubles
// whichever executor of the class computed it. The executor keeps no
// DeviceSpec: the class is all it knows of its device.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/inplace_function.hpp"
#include "common/time.hpp"
#include "gpu/device.hpp"
#include "gpu/device_class_memo.hpp"
#include "gpu/kernel.hpp"
#include "gpu/sharing.hpp"
#include "gpu/speedup.hpp"
#include "gpu/trace.hpp"
#include "sim/engine.hpp"

namespace sgprs::gpu {

using common::SimTime;

/// Invoked in simulation time when a kernel (or batch) fully completes.
/// Inline capacity covers every capture the callers create (the largest
/// today: 4 words in rt::SgprsScheduler::dispatch); outgrowing it is a
/// static_assert at the enqueue call site, never a heap allocation.
using CompletionFn =
    common::InplaceFunction<void(SimTime), 32, alignof(std::uint64_t)>;

/// The earliest instant an input from outside can reach an executor.
using InputBound = common::InplaceFunction<SimTime(), 16, alignof(void*)>;

class Executor {
 public:
  Executor(sim::Engine& engine, const DeviceSpec& device,
           SpeedupModel speedup, SharingParams sharing);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Creates a context limited to `sm_limit` SMs. The pool may be
  /// over-subscribed: no check against the device total (that is the point).
  /// Not after attach_memo (checked): that would change the class.
  ContextId create_context(int sm_limit);

  /// Creates a stream in `ctx` with the given priority. Not after
  /// attach_memo (checked).
  StreamId create_stream(ContextId ctx, StreamPriority priority);

  /// Replaces this executor's own memo with `memo`, shared with the other
  /// executors of its class; `memo` must be of this executor's class
  /// (checked) and outlive the executor.
  void attach_memo(DeviceClassMemo& memo);

  /// The class this executor's memo entries are a function of.
  const DeviceClass& device_class() const { return memo_->device_class(); }

  /// Enqueues every kernel of `program` in order; `on_done` (optional)
  /// fires when the last one completes. The trace sink sees the kernels
  /// with `tag` as their tag. The program is not copied: it must outlive
  /// the submission (rt::Task owns its stage programs and outlives its
  /// jobs).
  void enqueue_program(StreamId stream, const KernelProgram& program,
                       std::uint64_t tag, CompletionFn on_done);

  /// Enqueues one kernel; `on_done` (optional) fires at completion.
  void enqueue(StreamId stream, KernelDesc kernel, CompletionFn on_done);

  /// Enqueues a batch in order; `on_all_done` fires when the last kernel
  /// completes. The batch must be non-empty. Its kernels keep their own
  /// tags.
  void enqueue_batch(StreamId stream, std::vector<KernelDesc> kernels,
                     CompletionFn on_all_done);

  /// Lets completion events step the contended boundaries that lie
  /// strictly before `bound()`, read once an event's callbacks have fired.
  /// `bound` must answer no later than the first submit, purge_all or
  /// getter call that anything but this executor's own callbacks makes
  /// (cluster::Cluster passes the runner's next release, the scheduler's
  /// next timer and the engine's horizon). Without one, every boundary is
  /// an event. There is no default bound: an owner may drive the engine
  /// with step() and submit or read getters between events, and nothing
  /// in the calendar reveals those inputs, so only the owner knows a safe
  /// bound.
  void set_input_bound(InputBound bound) { input_bound_ = std::move(bound); }

  /// Device crash: drops every queued and running kernel without firing
  /// completion callbacks or crediting the lost residue to work_done_.
  /// Progress up to now is integrated first, so utilization accounting
  /// stays exact; the pending completion event is cancelled. Contexts and
  /// streams survive (a recovered device reuses them).
  void purge_all();

  // --- Introspection (used by schedulers and tests) ---
  // The getters that read kernel state first retire the solo-chain kernels
  // that ended by now, so they see what a per-kernel executor would. They
  // CHECK that no contended chain was stepped past now.
  int context_count() const { return static_cast<int>(contexts_.size()); }
  int stream_count() const { return static_cast<int>(streams_.size()); }
  int context_sm_limit(ContextId c) const;
  ContextId stream_context(StreamId s) const;
  StreamPriority stream_priority(StreamId s) const;
  /// Kernels queued behind the running one (running kernel not counted).
  std::size_t stream_queue_length(StreamId s);
  bool stream_busy(StreamId s);
  /// Number of kernels currently executing device-wide.
  int running_kernel_count();
  /// Number of kernels currently executing in a context.
  int context_running_count(ContextId c);
  /// Total 1-SM work completed so far (for utilization accounting).
  double total_work_done();
  /// Integral over time of (granted SMs of running kernels), in SM-seconds.
  double busy_sm_seconds();
  /// Estimated remaining time of the kernel running on `s` at current rates
  /// (SimTime::max() if the stream is idle). Queued kernels not included.
  SimTime running_remaining(StreamId s);

  const SpeedupModel& speedup_model() const { return device_class().speedup; }
  sim::Engine& engine() { return engine_; }

  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

  /// Distinct running sets whose contended grants are memoised, by every
  /// executor sharing this one's memo (tests use it to see that the memo
  /// was hit).
  std::size_t share_memo_size() const { return memo_->share_sets(); }

 private:
  // One submission: a program, the index of its next kernel to start, the
  // tag the trace sink sees and the callback of its last kernel.
  struct Entry {
    const KernelProgram* program = nullptr;
    // enqueue and enqueue_batch's program; their kernels keep their tags.
    std::unique_ptr<const KernelProgram> owned;
    std::uint32_t next = 0;
    std::uint64_t tag = 0;
    CompletionFn on_done;

    // The tag the trace sink sees for kernel `k` of this entry.
    std::uint64_t tag_of(const KernelDesc& k) const {
      return owned ? k.tag : tag;
    }
  };

  struct Running {
    const KernelDesc* desc = nullptr;  // inside its entry's program
    std::uint64_t tag = 0;
    // The entry's callback and owned program move here with its last
    // kernel, when the entry leaves the queue.
    CompletionFn on_done;
    std::unique_ptr<const KernelProgram> owned;
    double rem_overhead = 0.0;  // seconds at unit rate
    double rem_work = 0.0;      // 1-SM seconds
    double rate = 0.0;          // work per second at last reschedule
    double granted_sms = 0.0;
  };

  // What a kernel's progress adds to work_done_ and busy_sm_seconds_.
  struct Progress {
    double work = 0.0;
    double busy = 0.0;
  };

  /// FIFO of queue entries that keeps its storage: once a stream's longest
  /// queue has been seen, push and pop touch no allocator.
  class EntryQueue {
   public:
    bool empty() const { return head_ == items_.size(); }
    Entry& front() { return items_[head_]; }
    const Entry* begin() const { return items_.data() + head_; }
    const Entry* end() const { return items_.data() + items_.size(); }
    Entry& push_back();
    void pop_front();
    void clear();

   private:
    std::vector<Entry> items_;
    std::size_t head_ = 0;
  };

  struct Stream {
    ContextId ctx;
    StreamPriority priority;
    EntryQueue queue;
    std::optional<Running> running;  // empty when idle
  };

  struct Context {
    int running_count = 0;
  };

  using SoloStep = DeviceClassMemo::SoloStep;
  using SoloRow = DeviceClassMemo::SoloRow;

  // Queues a submission, then starts the stream or extends its open solo
  // chain.
  void submit(StreamId stream, const KernelProgram* program,
              std::unique_ptr<const KernelProgram> owned, std::uint64_t tag,
              CompletionFn on_done);
  // Starts the stream's first queued kernel unless it is already running.
  void start_if_idle(StreamId stream);
  // CHECKs that no contended chain was stepped past the engine's clock.
  void check_not_ahead() const;
  // check_not_ahead, then retires the solo-chain kernels that ended by
  // now: what every entry point that reads or changes kernel state does
  // first.
  void settle();
  // Consumes the time from the last update to `to` against stored rates,
  // one running kernel at a time, in stream order.
  void advance_progress(SimTime to);
  // One kernel's share of advance_progress over `elapsed` seconds.
  void advance_kernel(Running& r, double elapsed);
  // Advances `r` by `elapsed` seconds at its stored rate.
  static Progress progress(Running& r, double elapsed);
  // Recomputes all shares/rates and schedules the next completion event;
  // with one kernel running, arms a solo chain instead.
  void reschedule();
  // Sets every running kernel's contended rate (two or more running) and
  // returns the instant the first of them ends.
  SimTime contended_boundary();
  // The grants of the current running set (two or more kernels), indexed
  // by stream, from the memo or, on a miss, from compute_shares.
  const ShareGrant* contended_grants();
  // An event's reschedule once its callbacks have fired: steps the
  // contended boundaries before the input bound in place, until one holds
  // callbacks or the next lies at or past the bound.
  void step_contended();
  void arm_solo_chain(StreamId sid);
  // Retires the armed solo chain's callback-free kernels that end by `now`;
  // returns how many it retired.
  int catch_up(SimTime now);
  // catch_up's inner loop: retires, from the memo, the queued kernels of
  // the solo stream that start before `now` and end by it.
  int retire_queued(StreamId sid, SimTime now);
  // `program`'s memoised solo steps in the stream's solo class (its
  // priority on contexts of its context's SM limit, whose lone kernels get
  // identical grants). Valid until the next call.
  const SoloStep* solo_steps(const Stream& s, const KernelProgram& program);
  // The kernel as the trace sink sees it: `k` under `tag`.
  const KernelDesc& traced(const KernelDesc& k, std::uint64_t tag);
  // Starts the stream's next queued kernel at `at`.
  void start_next(StreamId s, SimTime at);
  // Drops the pending completion event, solo chain or not.
  void cancel_completion();
  void on_completion_event();
  // The event a stepped boundary posts for the callbacks it holds.
  void on_held_callbacks();
  // Retires every running kernel that has finished at `at` and starts its
  // stream's successor, collecting callbacks into callbacks_; returns how
  // many it retired.
  int retire_finished(SimTime at);
  // Sizes running_ and callbacks_ to the stream count and fills the set
  // and key from the streams' running kernels.
  void size_scratch();
  // Adds a stream running a kernel of class `op` to the running set and
  // the key.
  void mark_running(StreamId sid, OpClass op);
  // Drops the stream's running kernel from the running set and the key.
  void stop_running(StreamId sid);
  // Calls f(sid) for every stream in the running set, in stream order. A
  // word is read once, so f may retire and restart the stream it is given.
  template <class F>
  void for_each_running(F&& f) const {
    for (std::uint32_t w = 0; w < running_words_; ++w) {
      for (std::uint64_t bits = running_[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<StreamId>(w * 64 + std::countr_zero(bits)));
      }
    }
  }
  // The share-memo key of the running set, inside running_.
  std::uint8_t* key() {
    return reinterpret_cast<std::uint8_t*>(running_.data() + running_words_);
  }
  // Fires callbacks_ at `now`, deferring the reschedules they cause.
  void fire_callbacks(SimTime now);
  double priority_weight(StreamPriority p) const;
  // The grant a kernel of class `op` gets running alone on stream `s`,
  // memoised from compute_shares on that one request.
  ShareGrant solo_grant(const Stream& s, OpClass op);

  sim::Engine& engine_;
  TraceSink* trace_ = nullptr;
  // The memo every lookup goes through: own_memo_ until attach_memo.
  DeviceClassMemo* memo_ = nullptr;

  std::vector<Context> contexts_;
  std::vector<Stream> streams_;

  SimTime last_update_ = SimTime::zero();
  sim::EventId completion_event_ = sim::kInvalidEvent;
  // Stream whose solo chain the pending completion event ends, or -1 when
  // that event (if any) is a per-kernel one.
  StreamId solo_ = -1;
  // The armed chain's end, and whether it ran off the stream's queue
  // without reaching a callback (so a new entry extends it).
  SimTime solo_end_ = SimTime::zero();
  bool solo_open_ = false;
  double work_done_ = 0.0;
  double busy_sm_seconds_ = 0.0;
  int running_count_ = 0;
  // Re-entrancy guard: completion callbacks may enqueue; defer rescheduling
  // until the outermost mutation finishes.
  int defer_depth_ = 0;
  bool needs_reschedule_ = false;
  // ⌈streams / 64⌉ once running_ is laid out.
  std::uint32_t running_words_ = 0;

  InputBound input_bound_;

  // This executor's own memo; null once attach_memo shares another.
  std::unique_ptr<DeviceClassMemo> own_memo_;

  // The running set and the share-memo key in one buffer, so that a device
  // pays one allocation for both: words [0, running_words_) are the set
  // (bit s % 64 of word s / 64 is set while stream s runs a kernel), and
  // the bytes after them the key, one per stream (see DeviceClassMemo).
  std::vector<std::uint64_t> running_;
  // The key's hash: the XOR of its running streams' terms.
  std::uint64_t key_hash_ = 0;
  // Reused by every completion event; also holds a stepped boundary's
  // callbacks until its event.
  std::vector<CompletionFn> callbacks_;
  KernelDesc trace_desc_;
};

}  // namespace sgprs::gpu
