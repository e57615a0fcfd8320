// SGPRS: the paper's online phase (Section IV-B).
//
// Per context, three EDF-ordered stage queues (high / medium / low). The
// two high-priority CUDA streams of a context serve the high queue; the two
// low-priority streams serve medium first, then low. Medium is not an
// offline level: a low stage is promoted to medium when its preceding stage
// finished past its virtual deadline, which lets late chains catch up
// instead of cascading (the paper's defence against the domino effect).
//
// Context assignment for a released stage (Section IV-B2), in order:
//   1. a context whose queues are all empty;
//   2. among contexts whose estimated finish meets the stage deadline, the
//      one with the shortest queue;
//   3. otherwise, the earliest estimated finish time.
// Because the pool is pre-created, this switch is seamless: no MPS
// reconfiguration ever happens at run time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/enum_names.hpp"
#include "common/heap.hpp"
#include "common/rng.hpp"
#include "gpu/context_pool.hpp"
#include "rt/job.hpp"
#include "rt/job_pool.hpp"
#include "rt/scheduler.hpp"

namespace sgprs::rt {

/// Context assignment policy (paper uses kPaper; others are ablations).
enum class ContextAssignPolicy {
  kPaper,        // empty -> meets-deadline+shortest-queue -> earliest finish
  kRoundRobin,   // rotate independent of state
  kRandom,       // uniform random
  kLeastLoaded,  // minimal estimated backlog
};

/// Ordering inside each priority level (paper Section IV-B3 uses EDF;
/// FIFO exists for the ablation).
enum class QueueOrder { kEdf, kFifo };
inline constexpr common::EnumName<QueueOrder> kQueueOrderNames[] = {
    {QueueOrder::kEdf, "edf"}, {QueueOrder::kFifo, "fifo"}};

struct SgprsConfig {
  /// Maximum jobs of one task simultaneously in flight; further releases
  /// are dropped (frame-buffer semantics). Depth 1 sheds overload at
  /// release time, which keeps the post-pivot DMR slope moderate instead
  /// of letting queue backlog push every admitted frame past its deadline.
  int max_in_flight_per_task = 1;
  /// Promote a low stage to medium when its predecessor missed (IV-B3).
  bool medium_boost = true;
  ContextAssignPolicy assign_policy = ContextAssignPolicy::kPaper;
  QueueOrder queue_order = QueueOrder::kEdf;
  /// Extension beyond the paper: when a stage is about to be released for
  /// a job whose absolute deadline has already passed, abort the job
  /// instead of finishing a frame nobody can use. Aborted jobs count as
  /// dropped (missed). Off by default to match the paper.
  bool abort_hopeless = false;
  std::uint64_t rng_seed = 1;  // used by kRandom only
};

class SgprsScheduler final : public Scheduler {
 public:
  SgprsScheduler(gpu::Executor& exec, const gpu::ContextPool& pool,
                 metrics::Collector& collector, SgprsConfig cfg = {});

  void admit(const Task& task, int slot) override;
  void release_job(const Task& task, int slot, SimTime now) override;
  int jobs_in_flight() const override { return static_cast<int>(jobs_.live()); }
  int abort_in_flight() override;
  std::string name() const override { return "sgprs"; }

  // Introspection for tests.
  std::size_t queued_stages(int ctx) const;
  std::int64_t stage_migrations() const { return migrations_; }
  std::int64_t medium_promotions() const { return promotions_; }
  std::int64_t jobs_aborted() const { return aborts_; }

 private:
  struct QueuedStage {
    Job* job;
    int stage;
    SimTime deadline;  // absolute virtual deadline (EDF key)
    std::uint64_t seq;
    friend bool operator<(const QueuedStage& a, const QueuedStage& b) {
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      return a.seq < b.seq;  // FIFO among equal deadlines
    }
  };
  /// Flat binary-heap EDF queue on (deadline, seq) — a strict total order
  /// (seq is unique), so pop order matches the old std::set exactly while
  /// insert/pop stay allocation-free at steady state.
  using StageQueue = common::MinHeap<QueuedStage>;

  struct Slot {
    gpu::StreamId stream;
    bool busy = false;
    SimTime est_done;  // dispatch time + WCET, for finish-time estimates
  };

  struct CtxState {
    gpu::ContextId ctx;
    int sm_limit = 0;
    StageQueue high;
    StageQueue medium;
    StageQueue low;
    std::vector<Slot> high_slots;
    std::vector<Slot> low_slots;
    double queued_work_sec = 0.0;  // WCET sum of queued (undispatched) stages

    std::size_t queue_len() const {
      return high.size() + medium.size() + low.size();
    }
  };

  void release_stage(Job& job, SimTime now);
  int choose_context(const Job& job, int stage, SimTime now) const;
  int choose_paper(const Job& job, int stage, SimTime now) const;
  /// Estimated completion time of a new stage appended to ctx's backlog.
  SimTime estimate_finish(const CtxState& cs, double stage_wcet_sec,
                          SimTime now) const;
  void try_dispatch(int ctx_idx, SimTime now);
  void dispatch(CtxState& cs, Slot& slot, QueuedStage qs, SimTime now);
  void on_stage_complete(Job& job, int stage, int ctx_idx, int slot_idx,
                         bool high_slot, SimTime now);
  StagePriority effective_priority(const Job& job, int stage) const;
  double stage_wcet_sec(const Job& job, int stage, int sm_limit) const;

  gpu::Executor& exec_;
  metrics::Collector& collector_;
  SgprsConfig cfg_;
  std::vector<CtxState> contexts_;
  JobPool jobs_;  // stable addresses; O(1) retire, slots recycled
  std::vector<int> in_flight_;  // per stream slot
  std::uint64_t next_seq_ = 0;
  mutable common::Rng rng_;
  int rr_next_ = 0;
  std::int64_t migrations_ = 0;
  std::int64_t promotions_ = 0;
  std::int64_t aborts_ = 0;
};

}  // namespace sgprs::rt
