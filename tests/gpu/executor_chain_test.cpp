// Solo chains, stage programs, the share memo and contended chains against
// the per-kernel oracle (reference_executor.hpp).
//
// gpu::Executor advances a kernel that runs alone on its device through its
// stream's queue analytically, with one event per stage instead of one per
// kernel, replays shared stage programs from a per-program memo, memoises
// the grants of contended running sets instead of calling compute_shares at
// every boundary, and, given an input bound, steps contended boundaries in
// place instead of posting an event for each. These tests require all four
// to be invisible: the same callback times and order, the same work and
// busy-SM integrals bit for bit, the same getter answers and the same
// trace-sink sequence as the per-kernel path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "dnn/builders.hpp"
#include "dnn/partition.hpp"
#include "gpu/executor.hpp"
#include "reference_executor.hpp"
#include "sim/engine.hpp"

namespace sgprs::gpu {
namespace {

using common::SimTime;
using reference::ReferenceExecutor;

struct TraceEvent {
  char kind;  // 's' start, 'e' end
  std::int64_t t_ns;
  int ctx;
  int stream;
  std::uint64_t tag;
  bool operator==(const TraceEvent&) const = default;
  bool operator<(const TraceEvent& o) const {
    return std::tie(t_ns, kind, stream, ctx, tag) <
           std::tie(o.t_ns, o.kind, o.stream, o.ctx, o.tag);
  }
};

std::ostream& operator<<(std::ostream& os, const TraceEvent& e) {
  return os << e.kind << "@" << e.t_ns << " c" << e.ctx << " s" << e.stream
            << " k" << e.tag;
}

struct TraceLog : TraceSink {
  std::vector<TraceEvent> events;
  void on_kernel_start(SimTime t, int ctx, int stream,
                       const KernelDesc& k) override {
    events.push_back({'s', t.ns, ctx, stream, k.tag});
  }
  void on_kernel_end(SimTime t, int ctx, int stream,
                     const KernelDesc& k) override {
    events.push_back({'e', t.ns, ctx, stream, k.tag});
  }
};

/// One kernel batch of a randomized plan. A root batch arrives at `at_ns`;
/// a child (at_ns < 0) is enqueued by its parent's completion callback, the
/// way a scheduler dispatches a job's next stage, or, when it has a
/// `gap_ns`, by a timer that callback sets, the way the naive scheduler
/// waits out its host round-trip.
/// A batch that names `programs` submits those shared programs back to
/// back under `tag`, the callback on the last (the oracle gets their
/// kernels as plain batches with that tag).
struct Batch {
  std::int64_t at_ns = -1;
  int stream = 0;
  std::vector<KernelDesc> kernels;
  bool callback = true;  // false: kernels enqueued one by one, no callback
  std::vector<int> children;
  std::vector<int> programs;  // indices into Plan::programs
  std::uint64_t tag = 0;
  std::int64_t gap_ns = -1;  // >= 0: enqueued by a timer, this long after
};

struct StreamSpec {
  int ctx;
  StreamPriority priority;
};

/// What happens at `probe_ns`, on top of the batches.
enum class Probe { kNone, kPurge, kEnqueue };

struct Plan {
  SharingParams sharing;
  std::vector<std::vector<KernelDesc>> programs;  // kernels tagged 0
  std::vector<int> context_sms;
  std::vector<StreamSpec> streams;  // the last one only serves kEnqueue
  std::vector<Batch> batches;
  std::vector<std::int64_t> snapshots_ns;  // getter snapshots
  std::int64_t purge_ns = -1;              // mid-run purge at a random time
};

KernelDesc random_kernel(common::Rng& rng, std::uint64_t tag) {
  KernelDesc k;
  k.op = static_cast<OpClass>(rng.next_u64() % kOpClassCount);
  const double roll = rng.next_double();
  // A few zero-length kernels exercise zero-delay boundaries.
  k.work_sm_seconds = roll < 0.05 ? 0.0 : rng.uniform(0.0, 4e-3);
  k.overhead_seconds =
      roll < 0.05 || rng.next_double() < 0.3 ? 0.0 : rng.uniform(0.0, 2e-5);
  k.tag = tag;
  return k;
}

Plan random_plan(std::uint64_t seed) {
  common::Rng rng(seed);
  Plan p;
  if (rng.next_double() < 0.5) {
    p.sharing.interference_gamma = 0.0;
    p.sharing.oversub_thrash_kappa = 0.0;
    p.sharing.contention_exponent = 1.0;
  }
  const int contexts = 1 + static_cast<int>(rng.next_u64() % 3);
  for (int c = 0; c < contexts; ++c) {
    p.context_sms.push_back(1 + static_cast<int>(rng.next_u64() % 68));
  }
  const int streams = 1 + static_cast<int>(rng.next_u64() % 4);
  for (int s = 0; s <= streams; ++s) {  // one extra: the probe stream
    p.streams.push_back(
        {static_cast<int>(rng.next_u64() % contexts),
         rng.next_double() < 0.5 ? StreamPriority::kHigh
                                 : StreamPriority::kLow});
  }
  std::uint64_t tag = 0;
  const auto make_batch = [&](std::int64_t at_ns) {
    Batch b;
    b.at_ns = at_ns;
    b.stream = static_cast<int>(rng.next_u64() % streams);
    const int n = 1 + static_cast<int>(rng.next_u64() % 8);
    for (int k = 0; k < n; ++k) b.kernels.push_back(random_kernel(rng, ++tag));
    b.callback = rng.next_double() < 0.85;
    p.batches.push_back(std::move(b));
    return static_cast<int>(p.batches.size() - 1);
  };
  const int roots = 3 + static_cast<int>(rng.next_u64() % 14);
  for (int i = 0; i < roots; ++i) {
    make_batch(static_cast<std::int64_t>(rng.uniform(0.0, 2e7)));  // 20 ms
  }
  // Follow-up stages: a callback enqueues the next batch of its job.
  for (std::size_t i = 0; i < p.batches.size() && p.batches.size() < 48;
       ++i) {
    if (p.batches[i].callback && rng.next_double() < 0.6) {
      const int child = make_batch(-1);
      p.batches[i].children.push_back(child);
    }
  }
  const int snaps = static_cast<int>(rng.next_u64() % 8);
  for (int i = 0; i < snaps; ++i) {
    p.snapshots_ns.push_back(static_cast<std::int64_t>(rng.uniform(0.0, 3e7)));
  }
  if (rng.next_double() < 0.3) {
    p.purge_ns = static_cast<std::int64_t>(rng.uniform(0.0, 2.5e7));
  }
  return p;
}

struct Outcome {
  std::vector<std::pair<std::int64_t, int>> callbacks;  // (t ns, batch)
  std::vector<TraceEvent> trace;
  std::vector<std::string> snapshots;
  double work = 0.0;
  double busy = 0.0;
  std::int64_t end_ns = 0;
  std::size_t events = 0;
  std::size_t share_memo_size = 0;  // gpu::Executor only
};

/// Drives one executor type through a plan. Both executors share the API,
/// so the same code runs the oracle and the chain executor; only program
/// submissions differ, the oracle taking their kernels as batches. The
/// harness runs on an engine of its own, or on `shared` next to others.
/// A `bounded` gpu::Executor steps contended chains: its input bound is the
/// earliest event the harness itself has pending (arrivals, timers,
/// snapshots, purges, probes) or the engine's horizon, as the cluster
/// bounds a device by its runner, scheduler and epoch.
template <typename Exec>
class Harness {
 public:
  /// A gpu::Executor harness given `memo` is built from it, so the memo
  /// must be of the plan's class (class_of).
  explicit Harness(const Plan& plan, bool traced = true,
                   sim::Engine* shared = nullptr, bool bounded = false,
                   DeviceClassMemo* memo = nullptr)
      : plan_(plan),
        own_engine_(shared ? nullptr : std::make_unique<sim::Engine>()),
        engine_(shared ? *shared : *own_engine_),
        exec_(make_exec(engine_, plan, memo)) {
    if (traced) exec_.set_trace_sink(&trace_);
    if constexpr (std::is_same_v<Exec, Executor>) {
      if (bounded) exec_.set_input_bound([this] { return input_bound(); });
    }
    for (const auto& kernels : plan.programs) programs_.emplace_back(kernels);
    if (memo) {
      for (std::size_t s = 0; s < plan.streams.size(); ++s) {
        streams_.push_back(static_cast<StreamId>(s));
      }
      return;
    }
    for (int sms : plan.context_sms) exec_.create_context(sms);
    for (const auto& s : plan.streams) {
      streams_.push_back(exec_.create_stream(s.ctx, s.priority));
    }
  }

  /// Runs the plan. `probe` fires at `probe_ns`; when `two_step` is set it
  /// is scheduled from an event at that same instant, so every completion
  /// event already pending for that instant fires before it.
  Outcome run(Probe probe = Probe::kNone, std::int64_t probe_ns = -1,
              bool two_step = true) {
    arm(probe, probe_ns, two_step);
    engine_.run();
    return finish();
  }

  /// Runs the plan until `horizon_ns`, then, outside any event as the
  /// fleet's control plane acts between epochs, snapshots the getters and
  /// fires `action`, then runs the rest.
  Outcome run_to(std::int64_t horizon_ns, Probe action) {
    arm();
    engine_.run_until(SimTime::from_ns(horizon_ns));
    snapshot();
    fire(action);
    engine_.run();
    return finish();
  }

  Exec& exec() { return exec_; }

  /// The device class of an executor holding `plan`'s contexts and streams.
  static DeviceClass class_of(const Plan& plan) {
    DeviceClass cls{rtx2080ti().total_sms, SpeedupModel::rtx2080ti(),
                    plan.sharing, plan.context_sms, {}};
    for (const auto& s : plan.streams) {
      cls.streams.push_back(DeviceClass::Stream{s.ctx, s.priority});
    }
    return cls;
  }

  /// Schedules the plan (and `probe`) on the engine.
  void arm(Probe probe = Probe::kNone, std::int64_t probe_ns = -1,
           bool two_step = true) {
    for (std::size_t i = 0; i < plan_.batches.size(); ++i) {
      if (plan_.batches[i].at_ns < 0) continue;
      const int b = static_cast<int>(i);
      at(plan_.batches[i].at_ns, [this, b] { enqueue(b); });
    }
    for (std::int64_t t : plan_.snapshots_ns) {
      at(t, [this] { snapshot(); });
    }
    if (plan_.purge_ns >= 0) {
      at(plan_.purge_ns, [this] { exec_.purge_all(); });
    }
    if (probe != Probe::kNone) {
      if (two_step) {
        at(probe_ns, [this, probe_ns, probe] {
          at(probe_ns, [this, probe] { fire(probe); });
        });
      } else {
        at(probe_ns, [this, probe] { fire(probe); });
      }
    }
  }

  /// What the plan did, once the engine has run it.
  Outcome finish() {
    out_.trace = trace_.events;
    out_.work = exec_.total_work_done();
    out_.busy = exec_.busy_sm_seconds();
    out_.end_ns = engine_.now().ns;
    out_.events = engine_.processed_count();
    if constexpr (std::is_same_v<Exec, Executor>) {
      out_.share_memo_size = exec_.share_memo_size();
    }
    return out_;
  }

 private:
  static Exec make_exec(sim::Engine& engine, const Plan& plan,
                        DeviceClassMemo* memo) {
    if constexpr (std::is_same_v<Exec, Executor>) {
      if (memo) return Executor(engine, *memo);
    }
    return Exec(engine, rtx2080ti(), SpeedupModel::rtx2080ti(), plan.sharing);
  }
  /// Schedules `fn` at `t_ns`, pending for the input bound until it fires.
  template <typename F>
  void at(std::int64_t t_ns, F fn) {
    pending_.insert(t_ns);
    engine_.schedule_at(SimTime::from_ns(t_ns), [this, t_ns, fn] {
      pending_.erase(pending_.find(t_ns));
      fn();
    });
  }

  SimTime input_bound() const {
    const SimTime next = pending_.empty() ? SimTime::max()
                                          : SimTime::from_ns(*pending_.begin());
    return std::min(next, engine_.horizon());
  }

  /// A completion callback: records it and dispatches the batch's children.
  void done(int b, SimTime t) {
    out_.callbacks.emplace_back(t.ns, b);
    for (int child : plan_.batches[b].children) {
      const std::int64_t gap = plan_.batches[child].gap_ns;
      if (gap < 0) {
        enqueue(child);
      } else {
        at(t.ns + gap, [this, child] { enqueue(child); });
      }
    }
  }

  void enqueue(int b) {
    const Batch& batch = plan_.batches[b];
    const StreamId s = streams_[batch.stream];
    if (!batch.programs.empty()) {
      submit_programs(b);
      return;
    }
    if (batch.callback) {
      exec_.enqueue_batch(s, batch.kernels,
                          [this, b](SimTime t) { done(b, t); });
    } else {
      for (const auto& k : batch.kernels) exec_.enqueue(s, k, {});
    }
  }

  void submit_programs(int b) {
    const Batch& batch = plan_.batches[b];
    const StreamId s = streams_[batch.stream];
    using Fn =
        std::conditional_t<std::is_same_v<Exec, Executor>, CompletionFn,
                           ReferenceExecutor::CompletionFn>;
    for (std::size_t i = 0; i < batch.programs.size(); ++i) {
      const int p = batch.programs[i];
      Fn on_done;
      if (i + 1 == batch.programs.size() && batch.callback) {
        on_done = [this, b](SimTime t) { done(b, t); };
      }
      if constexpr (std::is_same_v<Exec, Executor>) {
        exec_.enqueue_program(s, programs_[p], batch.tag, std::move(on_done));
      } else {
        std::vector<KernelDesc> kernels = plan_.programs[p];
        for (auto& k : kernels) k.tag = batch.tag;
        exec_.enqueue_batch(s, std::move(kernels), std::move(on_done));
      }
    }
  }

  void fire(Probe probe) {
    if (probe == Probe::kPurge) {
      exec_.purge_all();
      return;
    }
    KernelDesc k;
    k.op = OpClass::kConv;
    k.work_sm_seconds = 1e-3;
    k.tag = 1u << 20;
    exec_.enqueue(streams_.back(), k, [this](SimTime t) {
      out_.callbacks.emplace_back(t.ns, -1);
    });
  }

  void snapshot() {
    std::ostringstream os;
    os << std::hexfloat << engine_.now().ns << " run="
       << exec_.running_kernel_count() << " work=" << exec_.total_work_done()
       << " busy=" << exec_.busy_sm_seconds();
    for (int c = 0; c < exec_.context_count(); ++c) {
      os << " c" << c << "=" << exec_.context_running_count(c);
    }
    for (StreamId s : streams_) {
      os << " s" << s << "=" << exec_.stream_busy(s) << "/"
         << exec_.stream_queue_length(s) << "/"
         << exec_.running_remaining(s).ns;
    }
    out_.snapshots.push_back(os.str());
  }

  const Plan& plan_;
  std::unique_ptr<sim::Engine> own_engine_;
  sim::Engine& engine_;
  Exec exec_;
  std::vector<KernelProgram> programs_;
  TraceLog trace_;
  std::vector<StreamId> streams_;
  Outcome out_;
  std::multiset<std::int64_t> pending_;  // times of the harness's events
};

void expect_identical(const Outcome& chain, const Outcome& oracle) {
  EXPECT_EQ(chain.callbacks, oracle.callbacks);
  EXPECT_EQ(chain.trace, oracle.trace);
  EXPECT_EQ(chain.snapshots, oracle.snapshots);
  // Bit-identical, not merely close.
  EXPECT_EQ(chain.work, oracle.work);
  EXPECT_EQ(chain.busy, oracle.busy);
  EXPECT_EQ(chain.end_ns, oracle.end_ns);
  EXPECT_LE(chain.events, oracle.events);
}

/// Kernel boundaries of an oracle trace where a kernel that started
/// strictly earlier ends while running alone and its stream's next kernel
/// starts at once — the boundaries a solo chain skips unless the ending
/// kernel carries a callback.
std::vector<std::int64_t> solo_boundaries(const std::vector<TraceEvent>& t) {
  std::vector<std::int64_t> ends;
  std::vector<std::pair<int, std::int64_t>> running;  // (stream, start)
  for (std::size_t i = 0; i < t.size(); ++i) {
    const TraceEvent& e = t[i];
    if (e.kind == 's') {
      running.emplace_back(e.stream, e.t_ns);
      continue;
    }
    const auto it =
        std::find_if(running.begin(), running.end(),
                     [&](const auto& r) { return r.first == e.stream; });
    const bool alone = running.size() == 1;
    const bool started_earlier = it->second < e.t_ns;
    running.erase(it);
    const bool continues = i + 1 < t.size() && t[i + 1].kind == 's' &&
                           t[i + 1].stream == e.stream &&
                           t[i + 1].t_ns == e.t_ns;
    if (alone && started_earlier && continues) ends.push_back(e.t_ns);
  }
  return ends;
}

TEST(SoloChainDifferential, TwoHundredSeedsMatchThePerKernelOracle) {
  std::size_t chain_events = 0;
  std::size_t oracle_events = 0;
  int boundary_probes = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Plan plan = random_plan(seed);
    const Outcome base = Harness<ReferenceExecutor>(plan).run();
    const Outcome chain = Harness<Executor>(plan).run();
    expect_identical(chain, base);
    chain_events += chain.events;
    oracle_events += base.events;

    // A purge or a foreign enqueue landing exactly on a solo kernel
    // boundary, and one mid-kernel.
    common::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    const auto ends = solo_boundaries(base.trace);
    if (ends.empty()) continue;
    const std::int64_t at = ends[rng.next_u64() % ends.size()];
    for (Probe probe : {Probe::kPurge, Probe::kEnqueue}) {
      SCOPED_TRACE(probe == Probe::kPurge ? "purge at boundary"
                                          : "enqueue at boundary");
      expect_identical(Harness<Executor>(plan).run(probe, at),
                       Harness<ReferenceExecutor>(plan).run(probe, at));
      const std::int64_t mid = at - 1 - static_cast<std::int64_t>(
                                            rng.next_u64() % 1000);
      if (mid <= 0) continue;
      SCOPED_TRACE("mid-kernel");
      expect_identical(Harness<Executor>(plan).run(probe, mid),
                       Harness<ReferenceExecutor>(plan).run(probe, mid));
    }
    ++boundary_probes;
  }
  EXPECT_GT(boundary_probes, 100);
  // The chains must actually skip events, not merely agree.
  EXPECT_LT(chain_events, oracle_events);
}

/// A plan built around shared stage programs: 1-3 programs, 1-4 streams,
/// and roots that mix program submissions (1-3 programs back to back, the
/// callback on the last, as the naive scheduler submits a whole job) with
/// enqueue_batch and callback-free per-kernel enqueues. Streams draw
/// programs at random, so several streams run the same program.
Plan program_plan(std::uint64_t seed) {
  common::Rng rng(seed);
  Plan p;
  if (rng.next_double() < 0.5) {
    p.sharing.interference_gamma = 0.0;
    p.sharing.oversub_thrash_kappa = 0.0;
    p.sharing.contention_exponent = 1.0;
  }
  // Half the plans give every context one SM limit, so streams of
  // different contexts share solo-memo rows.
  const int contexts = 1 + static_cast<int>(rng.next_u64() % 3);
  const bool equal_limits = rng.next_double() < 0.5;
  const int limit = 1 + static_cast<int>(rng.next_u64() % 68);
  for (int c = 0; c < contexts; ++c) {
    p.context_sms.push_back(
        equal_limits ? limit : 1 + static_cast<int>(rng.next_u64() % 68));
  }
  const int streams = 1 + static_cast<int>(rng.next_u64() % 4);
  for (int s = 0; s <= streams; ++s) {  // one extra: the probe stream
    p.streams.push_back(
        {static_cast<int>(rng.next_u64() % contexts),
         rng.next_double() < 0.5 ? StreamPriority::kHigh
                                 : StreamPriority::kLow});
  }
  const int programs = 1 + static_cast<int>(rng.next_u64() % 3);
  for (int i = 0; i < programs; ++i) {
    std::vector<KernelDesc> kernels;
    const int n = 1 + static_cast<int>(rng.next_u64() % 10);
    for (int k = 0; k < n; ++k) kernels.push_back(random_kernel(rng, 0));
    p.programs.push_back(std::move(kernels));
  }
  std::uint64_t tag = 0;
  const auto make_batch = [&](std::int64_t at_ns) {
    Batch b;
    b.at_ns = at_ns;
    b.stream = static_cast<int>(rng.next_u64() % streams);
    const double kind = rng.next_double();
    if (kind < 0.6) {
      const int run = 1 + static_cast<int>(rng.next_u64() % 3);
      for (int i = 0; i < run; ++i) {
        b.programs.push_back(static_cast<int>(rng.next_u64() % programs));
      }
      b.tag = ++tag;
      b.callback = rng.next_double() < 0.9;
    } else {
      const int n = 1 + static_cast<int>(rng.next_u64() % 6);
      for (int k = 0; k < n; ++k) {
        b.kernels.push_back(random_kernel(rng, ++tag));
      }
      b.callback = kind < 0.85;
    }
    p.batches.push_back(std::move(b));
    return static_cast<int>(p.batches.size() - 1);
  };
  const int roots = 3 + static_cast<int>(rng.next_u64() % 12);
  for (int i = 0; i < roots; ++i) {
    make_batch(static_cast<std::int64_t>(rng.uniform(0.0, 2e7)));  // 20 ms
  }
  for (std::size_t i = 0; i < p.batches.size() && p.batches.size() < 48;
       ++i) {
    if (p.batches[i].callback && rng.next_double() < 0.6) {
      const int child = make_batch(-1);
      p.batches[i].children.push_back(child);
    }
  }
  const int snaps = static_cast<int>(rng.next_u64() % 8);
  for (int i = 0; i < snaps; ++i) {
    p.snapshots_ns.push_back(static_cast<std::int64_t>(rng.uniform(0.0, 3e7)));
  }
  return p;
}

/// Whether two streams of `plan` submit the same program.
bool program_shared(const Plan& plan) {
  std::vector<std::vector<int>> users(plan.programs.size());
  for (const Batch& b : plan.batches) {
    for (int prog : b.programs) {
      auto& u = users[prog];
      if (std::find(u.begin(), u.end(), b.stream) == u.end()) {
        u.push_back(b.stream);
      }
    }
  }
  return std::any_of(users.begin(), users.end(),
                     [](const auto& u) { return u.size() >= 2; });
}

TEST(StageProgramDifferential, TwoHundredSeedsMatchThePerKernelOracle) {
  std::size_t chain_events = 0;
  std::size_t oracle_events = 0;
  int shared = 0;
  int purged = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Plan plan = program_plan(seed);
    shared += program_shared(plan) ? 1 : 0;
    const Outcome base = Harness<ReferenceExecutor>(plan).run();
    const Outcome chain = Harness<Executor>(plan).run();
    expect_identical(chain, base);
    chain_events += chain.events;
    oracle_events += base.events;
    {
      SCOPED_TRACE("no trace sink");
      expect_identical(Harness<Executor>(plan, /*traced=*/false).run(),
                       Harness<ReferenceExecutor>(plan, false).run());
    }

    // A device crash mid-chain: on a skipped kernel boundary, and inside
    // a skipped kernel.
    common::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    const auto ends = solo_boundaries(base.trace);
    if (ends.empty()) continue;
    const std::int64_t at = ends[rng.next_u64() % ends.size()];
    const std::int64_t mid =
        at - 1 - static_cast<std::int64_t>(rng.next_u64() % 1000);
    for (const std::int64_t t : {at, mid}) {
      if (t <= 0) continue;
      for (const bool traced : {true, false}) {
        SCOPED_TRACE("purge at " + std::to_string(t) +
                     (traced ? " traced" : " untraced"));
        expect_identical(
            Harness<Executor>(plan, traced).run(Probe::kPurge, t),
            Harness<ReferenceExecutor>(plan, traced).run(Probe::kPurge, t));
      }
    }
    ++purged;
  }
  EXPECT_GT(shared, 100);
  EXPECT_GT(purged, 100);
  EXPECT_LT(chain_events, oracle_events);
}

/// A plan that keeps many kernels running at once: 2-16 streams (65-140
/// when `wide`, a running set over two or three words) over 1-4
/// over-subscribed contexts, kernels from a small op-class palette, and
/// jobs whose follow-up batches repeat their first batch's op sequence on
/// the same stream, the way a periodic task re-runs its stages. Running
/// sets recur, so most contended reschedules hit the share memo.
Plan contended_plan(std::uint64_t seed, bool wide = false) {
  common::Rng rng(seed);
  Plan p;
  if (rng.next_double() < 0.5) {
    p.sharing.interference_gamma = 0.0;
    p.sharing.oversub_thrash_kappa = 0.0;
    p.sharing.contention_exponent = 1.0;
  }
  const int contexts = 1 + static_cast<int>(rng.next_u64() % 4);
  const double oversub = rng.uniform(1.0, 2.0);
  for (int c = 0; c < contexts; ++c) {
    const int sms = static_cast<int>(68.0 * oversub / contexts);
    p.context_sms.push_back(std::clamp(sms, 1, 68));
  }
  const int streams = wide ? 65 + static_cast<int>(rng.next_u64() % 76)
                           : 2 + static_cast<int>(rng.next_u64() % 15);
  for (int s = 0; s < streams; ++s) {
    p.streams.push_back(
        {static_cast<int>(rng.next_u64() % contexts),
         rng.next_double() < 0.5 ? StreamPriority::kHigh
                                 : StreamPriority::kLow});
  }
  const OpClass palette[] = {OpClass::kConv, OpClass::kReLU};
  std::uint64_t tag = 0;
  const int jobs = 4 + static_cast<int>(rng.next_u64() % 13);
  for (int j = 0; j < jobs; ++j) {
    Batch first;
    first.at_ns = static_cast<std::int64_t>(rng.uniform(0.0, 2e6));  // 2 ms
    first.stream = static_cast<int>(rng.next_u64() % streams);
    const int n = 1 + static_cast<int>(rng.next_u64() % 6);
    for (int k = 0; k < n; ++k) {
      KernelDesc d = random_kernel(rng, ++tag);
      d.op = palette[rng.next_u64() % 2];
      first.kernels.push_back(d);
    }
    const int repeats = 2 + static_cast<int>(rng.next_u64() % 9);
    int parent = static_cast<int>(p.batches.size());
    p.batches.push_back(first);
    for (int r = 0; r < repeats; ++r) {
      Batch next = first;
      next.at_ns = -1;
      for (auto& d : next.kernels) d.tag = ++tag;
      const int child = static_cast<int>(p.batches.size());
      p.batches.push_back(std::move(next));
      p.batches[parent].children.push_back(child);
      parent = child;
    }
  }
  const int snaps = static_cast<int>(rng.next_u64() % 8);
  for (int i = 0; i < snaps; ++i) {
    p.snapshots_ns.push_back(static_cast<std::int64_t>(rng.uniform(0.0, 2e7)));
  }
  if (rng.next_double() < 0.3) {  // mid-contention: the jobs overlap early
    p.purge_ns = static_cast<std::int64_t>(rng.uniform(1e5, 4e6));
  }
  return p;
}

/// Instants in a trace after which two or more kernels run. The last
/// reschedule at such an instant sees that running set, so each one is at
/// least one share-memo lookup.
/// A purge ends kernels without trace events, so counting stops there.
std::size_t contended_instants(const std::vector<TraceEvent>& t,
                               std::int64_t purge_ns) {
  std::size_t instants = 0;
  int running = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (purge_ns >= 0 && t[i].t_ns >= purge_ns) break;
    running += t[i].kind == 's' ? 1 : -1;
    const bool last = i + 1 == t.size() || t[i + 1].t_ns != t[i].t_ns;
    if (last && running >= 2) ++instants;
  }
  return instants;
}

/// Kernel starts in a trace on a stream past the first 64 while another
/// kernel runs: contended sets beyond the running set's first word.
std::size_t wide_contended_starts(const std::vector<TraceEvent>& t) {
  std::size_t starts = 0;
  int running = 0;
  for (const TraceEvent& e : t) {
    if (e.kind == 's' && e.stream >= 64 && running >= 1) ++starts;
    running += e.kind == 's' ? 1 : -1;
  }
  return starts;
}

/// Kernels running just before `at_ns`, from a trace.
int running_before(const std::vector<TraceEvent>& t, std::int64_t at_ns) {
  int running = 0;
  for (const TraceEvent& e : t) {
    if (e.t_ns >= at_ns) break;
    running += e.kind == 's' ? 1 : -1;
  }
  return running;
}

TEST(ShareMemoDifferential, TwoHundredSeedsMatchThePerKernelOracle) {
  std::size_t lookups = 0;
  std::size_t memo_entries = 0;
  int purged = 0;  // plans purged while two or more kernels ran
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Plan plan = contended_plan(seed);
    const Outcome base = Harness<ReferenceExecutor>(plan).run();
    const Outcome memo = Harness<Executor>(plan).run();
    expect_identical(memo, base);
    lookups += contended_instants(memo.trace, plan.purge_ns);
    memo_entries += memo.share_memo_size;
    if (plan.purge_ns >= 0 && running_before(base.trace, plan.purge_ns) >= 2) {
      ++purged;
    }
  }
  EXPECT_GT(purged, 20);
  // Every memo entry is one miss; the rest of the lookups were hits, and
  // they must dominate.
  EXPECT_GT(memo_entries, 0u);
  EXPECT_LT(3 * memo_entries, lookups);

  // Wide pools, as a 68-context pool of four streams each gives.
  std::size_t wide_starts = 0;
  for (std::uint64_t seed = 201; seed <= 216; ++seed) {
    SCOPED_TRACE("wide seed " + std::to_string(seed));
    const Plan plan = contended_plan(seed, /*wide=*/true);
    const Outcome base = Harness<ReferenceExecutor>(plan).run();
    const Outcome memo = Harness<Executor>(plan).run();
    expect_identical(memo, base);
    wide_starts += wide_contended_starts(base.trace);
  }
  EXPECT_GT(wide_starts, 50u);
}

/// contended_plan(seed)'s jobs on `cls`'s device class: its sharing
/// parameters, contexts and streams, with every job's stream folded onto
/// them.
Plan plan_of_class(const Plan& cls, std::uint64_t seed) {
  Plan p = contended_plan(seed);
  p.sharing = cls.sharing;
  p.context_sms = cls.context_sms;
  p.streams = cls.streams;
  for (Batch& b : p.batches) b.stream %= static_cast<int>(p.streams.size());
  return p;
}

/// Overflows `memo` from one more executor of its class, on an engine of
/// its own, until its solo-step table has started over and, when the class
/// has streams enough to hold that many running sets, its share table too.
/// Returns whether the share table started over.
bool overflow_memo(DeviceClassMemo& memo, std::uint64_t seed) {
  sim::Engine side;
  Executor filler(side, memo);
  common::Rng rng(seed);

  // Each one-off batch queued behind a lone running kernel with no
  // callback extends its solo chain, adding one solo-step row.
  KernelDesc lone;
  lone.work_sm_seconds = 1.0;
  filler.enqueue(0, lone, {});
  for (std::size_t held = 0, i = 0;; ++i) {
    EXPECT_LT(i, 10000u) << "the solo-step table never started over";
    if (i == 10000) return false;
    std::vector<KernelDesc> batch;
    for (int k = 0; k < 8; ++k) batch.push_back(random_kernel(rng, 0));
    filler.enqueue_batch(0, std::move(batch), {});
    if (memo.solo_step_count() < held) break;
    held = memo.solo_step_count();
  }
  filler.purge_all();

  // Kernels of every op class on every stream: nearly every boundary is a
  // running set not seen before. Five streams give 10^5 possible sets.
  const int streams = filler.stream_count();
  if (streams < 5) return false;
  for (StreamId s = 0; s < streams; ++s) {
    for (int k = 0; k < 2 * 8192 / streams; ++k) {
      filler.enqueue(s, random_kernel(rng, 0), {});
    }
  }
  // Watched per kernel completion, not per engine event, so the reset is
  // seen however many boundaries one event covers.
  struct ResetWatch final : TraceSink {
    const DeviceClassMemo& memo;
    std::size_t held;
    bool reset = false;
    explicit ResetWatch(const DeviceClassMemo& m)
        : memo(m), held(m.share_sets()) {}
    void on_kernel_start(SimTime, int, int, const KernelDesc&) override {}
    void on_kernel_end(SimTime, int, int, const KernelDesc&) override {
      reset = reset || memo.share_sets() < held;
      held = memo.share_sets();
    }
  } watch(memo);
  filler.set_trace_sink(&watch);
  while (!watch.reset && side.step()) {
  }
  return watch.reset;
}

TEST(ShareMemoDifferential, SharedMemoExecutorsMatchTheirOracles) {
  // Two or three executors of one class run interleaved plans on one
  // engine, sharing one memo that another executor of the class overflows
  // mid-run. Each must match its own plan's per-kernel oracle.
  int share_resets = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Plan cls = contended_plan(seed);
    std::vector<Plan> plans;
    const int executors = 2 + static_cast<int>(seed % 2);
    for (int i = 0; i < executors; ++i) {
      plans.push_back(plan_of_class(cls, seed * 7919 + i));
    }

    sim::Engine engine;
    DeviceClassMemo memo(Harness<Executor>::class_of(cls));
    std::vector<std::unique_ptr<Harness<Executor>>> shared;
    // Half the seeds step contended chains, each bounded by its own
    // harness's inputs.
    for (const Plan& plan : plans) {
      shared.push_back(std::make_unique<Harness<Executor>>(
          plan, true, &engine, /*bounded=*/seed % 2 == 0, &memo));
      shared.back()->arm();
    }
    common::Rng rng(seed);
    const auto overflow_ns = static_cast<std::int64_t>(rng.uniform(0.0, 3e6));
    engine.schedule_at(SimTime::from_ns(overflow_ns), [&] {
      share_resets += overflow_memo(memo, seed) ? 1 : 0;
    });
    engine.run();

    for (std::size_t i = 0; i < plans.size(); ++i) {
      SCOPED_TRACE("executor " + std::to_string(i));
      const Outcome got = shared[i]->finish();
      const Outcome want = Harness<ReferenceExecutor>(plans[i]).run();
      // The engine is shared, so its event count and end time are not
      // this executor's.
      EXPECT_EQ(got.callbacks, want.callbacks);
      EXPECT_EQ(got.trace, want.trace);
      EXPECT_EQ(got.snapshots, want.snapshots);
      EXPECT_EQ(got.work, want.work);
      EXPECT_EQ(got.busy, want.busy);
    }
  }
  EXPECT_GT(share_resets, 100);
}

/// A contended plan whose inputs keep arriving while chains run: jobs over
/// 2-12 streams (64-139 when `wide`) whose stages are kernel batches or
/// shared programs, child stages dispatched from the callback or by a
/// timer 0-200 us after it, late arrivals landing mid-chain, getter
/// snapshots and, in some plans, a purge.
Plan chain_plan(std::uint64_t seed, bool wide = false) {
  common::Rng rng(seed);
  Plan p;
  if (rng.next_double() < 0.5) {
    p.sharing.interference_gamma = 0.0;
    p.sharing.oversub_thrash_kappa = 0.0;
    p.sharing.contention_exponent = 1.0;
  }
  const int contexts = 1 + static_cast<int>(rng.next_u64() % 3);
  const double oversub = rng.uniform(1.0, 2.0);
  for (int c = 0; c < contexts; ++c) {
    const int sms = static_cast<int>(68.0 * oversub / contexts);
    p.context_sms.push_back(std::clamp(sms, 1, 68));
  }
  const int streams = wide ? 64 + static_cast<int>(rng.next_u64() % 76)
                           : 2 + static_cast<int>(rng.next_u64() % 11);
  for (int s = 0; s <= streams; ++s) {  // one extra: the probe stream
    p.streams.push_back(
        {static_cast<int>(rng.next_u64() % contexts),
         rng.next_double() < 0.5 ? StreamPriority::kHigh
                                 : StreamPriority::kLow});
  }
  const OpClass palette[] = {OpClass::kConv, OpClass::kReLU};
  const auto kernel = [&](std::uint64_t tag) {
    KernelDesc d = random_kernel(rng, tag);
    d.op = palette[rng.next_u64() % 2];
    return d;
  };
  const int programs = 1 + static_cast<int>(rng.next_u64() % 3);
  for (int i = 0; i < programs; ++i) {
    std::vector<KernelDesc> kernels;
    const int n = 1 + static_cast<int>(rng.next_u64() % 6);
    for (int k = 0; k < n; ++k) kernels.push_back(kernel(0));
    p.programs.push_back(std::move(kernels));
  }
  std::uint64_t tag = 0;
  const auto make_batch = [&](std::int64_t at_ns, int stream) {
    Batch b;
    b.at_ns = at_ns;
    b.stream = stream;
    if (rng.next_double() < 0.5) {
      const int run = 1 + static_cast<int>(rng.next_u64() % 2);
      for (int i = 0; i < run; ++i) {
        b.programs.push_back(static_cast<int>(rng.next_u64() % programs));
      }
      b.tag = ++tag;
    } else {
      const int n = 1 + static_cast<int>(rng.next_u64() % 6);
      for (int k = 0; k < n; ++k) b.kernels.push_back(kernel(++tag));
    }
    b.callback = rng.next_double() < 0.95;
    if (at_ns < 0 && rng.next_double() < 0.5) {
      // A few zero gaps: a timer due at the callback's own instant.
      b.gap_ns = rng.next_double() < 0.1
                     ? 0
                     : static_cast<std::int64_t>(rng.uniform(0.0, 2e5));
    }
    p.batches.push_back(std::move(b));
    return static_cast<int>(p.batches.size() - 1);
  };
  const int jobs = 4 + static_cast<int>(rng.next_u64() % 10);
  for (int j = 0; j < jobs; ++j) {
    // Most jobs start together; the rest arrive while chains run.
    const double window = rng.next_double() < 0.7 ? 2e6 : 1e7;
    const int stream = static_cast<int>(rng.next_u64() % streams);
    int parent = make_batch(
        static_cast<std::int64_t>(rng.uniform(0.0, window)), stream);
    const int stages = static_cast<int>(rng.next_u64() % 8);
    for (int st = 0; st < stages && p.batches[parent].callback; ++st) {
      const int child = make_batch(-1, stream);
      p.batches[parent].children.push_back(child);
      parent = child;
    }
  }
  const int snaps = static_cast<int>(rng.next_u64() % 8);
  for (int i = 0; i < snaps; ++i) {
    p.snapshots_ns.push_back(static_cast<std::int64_t>(rng.uniform(0.0, 1e7)));
  }
  if (rng.next_double() < 0.3) {
    p.purge_ns = static_cast<std::int64_t>(rng.uniform(1e5, 6e6));
  }
  return p;
}

/// Instants in a trace where a kernel ends with at least one other still
/// running: the boundaries a contended chain steps unless an input or a
/// callback is due there. A purge ends kernels without trace events, so
/// counting stops there.
std::vector<std::int64_t> contended_boundaries(
    const std::vector<TraceEvent>& t, std::int64_t purge_ns) {
  std::vector<std::int64_t> ends;
  int running = 0;
  for (const TraceEvent& e : t) {
    if (purge_ns >= 0 && e.t_ns >= purge_ns) break;
    if (e.kind == 'e' && running >= 2) ends.push_back(e.t_ns);
    running += e.kind == 's' ? 1 : -1;
  }
  return ends;
}

/// What one chain_plan seed's runs fired.
struct ChainCounts {
  std::size_t chain_events = 0;
  std::size_t unbounded_events = 0;
  std::size_t oracle_events = 0;
  bool horizon = false;  // whether a contended boundary was probed
  std::vector<TraceEvent> trace;  // the oracle's
};

/// Runs `plan` bounded, unbounded and untraced against the oracle, then
/// with a foreign enqueue or purge due on one of its contended boundaries
/// and at run_until horizons around it.
ChainCounts check_chain_plan(const Plan& plan, std::uint64_t seed) {
  ChainCounts n;
  const Outcome base = Harness<ReferenceExecutor>(plan).run();
  const Outcome chain =
      Harness<Executor>(plan, true, nullptr, /*bounded=*/true).run();
  expect_identical(chain, base);
  n.chain_events = chain.events;
  n.oracle_events = base.events;
  n.unbounded_events = Harness<Executor>(plan).run().events;
  n.trace = base.trace;
  {
    SCOPED_TRACE("no trace sink");
    expect_identical(Harness<Executor>(plan, false, nullptr, true).run(),
                     Harness<ReferenceExecutor>(plan, false).run());
  }

  // A run_until horizon on a contended boundary, 1 ns before it and 1 ns
  // after it, with a foreign enqueue or a purge at the horizon.
  common::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto ends = contended_boundaries(base.trace, plan.purge_ns);
  if (ends.empty()) return n;
  const std::int64_t at = ends[rng.next_u64() % ends.size()];
  // A foreign enqueue or purge due exactly on that boundary: scheduled
  // ahead of the oracle's completion event, the input comes first;
  // scheduled from an event at that instant, the boundary does.
  for (const Probe probe : {Probe::kEnqueue, Probe::kPurge}) {
    for (const bool two_step : {true, false}) {
      SCOPED_TRACE(std::string(probe == Probe::kPurge ? "purge" : "enqueue") +
                   " due on the boundary" +
                   (two_step ? ", behind it" : ", ahead of it"));
      expect_identical(
          Harness<Executor>(plan, true, nullptr, true)
              .run(probe, at, two_step),
          Harness<ReferenceExecutor>(plan).run(probe, at, two_step));
    }
  }
  for (const std::int64_t h : {at - 1, at, at + 1}) {
    if (h < 0) continue;
    for (const Probe action : {Probe::kEnqueue, Probe::kPurge}) {
      for (const bool traced : {true, false}) {
        SCOPED_TRACE(std::string(action == Probe::kPurge ? "purge"
                                                          : "enqueue") +
                     " at boundary " + std::to_string(h - at) + " ns" +
                     (traced ? " traced" : " untraced"));
        expect_identical(
            Harness<Executor>(plan, traced, nullptr, true).run_to(h, action),
            Harness<ReferenceExecutor>(plan, traced).run_to(h, action));
      }
    }
  }
  n.horizon = true;
  return n;
}

TEST(ContendedChainDifferential, TwoHundredSeedsMatchThePerKernelOracle) {
  std::size_t chain_events = 0;
  std::size_t unbounded_events = 0;
  std::size_t oracle_events = 0;
  int horizons = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ChainCounts n = check_chain_plan(chain_plan(seed), seed);
    chain_events += n.chain_events;
    unbounded_events += n.unbounded_events;
    oracle_events += n.oracle_events;
    horizons += n.horizon ? 1 : 0;
  }
  EXPECT_GT(horizons, 150);
  // Stepping must actually skip events, beyond what solo chains skip.
  EXPECT_LT(chain_events, unbounded_events);
  EXPECT_LT(2 * chain_events, oracle_events);

  // Wide pools, as a 68-context pool of four streams each gives.
  std::size_t wide_starts = 0;
  for (std::uint64_t seed = 201; seed <= 216; ++seed) {
    SCOPED_TRACE("wide seed " + std::to_string(seed));
    wide_starts +=
        wide_contended_starts(check_chain_plan(chain_plan(seed, true), seed)
                                  .trace);
  }
  EXPECT_GT(wide_starts, 50u);
}

TEST(SoloChain, LoneResnet18JobFiresOneEventPerStage) {
  const dnn::Network net = dnn::resnet18();
  const dnn::CostModel cost = dnn::CostModel::calibrated();
  const dnn::StagePlan stages = dnn::partition_into_stages(net, cost, 6);
  ASSERT_EQ(stages.stage_count(), 6);
  std::size_t kernels = 0;
  for (const auto& st : stages.stages) kernels += st.size();

  // Each stage end dispatches the next stage on the same stream, as the
  // SGPRS scheduler does; returns the stage end times.
  const auto run = [&](auto& exec, sim::Engine& engine) {
    const auto ctx = exec.create_context(34);
    const auto s = exec.create_stream(ctx, StreamPriority::kHigh);
    std::vector<std::int64_t> ends;
    std::function<void(int)> dispatch = [&](int stage) {
      exec.enqueue_batch(s, dnn::stage_kernels(net, cost, stages.stages[stage]),
                         [&, stage](SimTime t) {
                           ends.push_back(t.ns);
                           if (stage + 1 < 6) dispatch(stage + 1);
                         });
    };
    dispatch(0);
    engine.run();
    return ends;
  };
  sim::Engine engine;
  Executor exec(engine, rtx2080ti(), SpeedupModel::rtx2080ti(),
                SharingParams{});
  sim::Engine oracle_engine;
  ReferenceExecutor oracle(oracle_engine, rtx2080ti(),
                           SpeedupModel::rtx2080ti(), SharingParams{});
  const auto ends = run(exec, engine);
  EXPECT_EQ(ends, run(oracle, oracle_engine));
  ASSERT_EQ(ends.size(), 6u);
  EXPECT_EQ(engine.processed_count(), 6u);
  EXPECT_EQ(oracle_engine.processed_count(), kernels);
  EXPECT_GT(kernels, 6u * 3);
  EXPECT_EQ(exec.total_work_done(), oracle.total_work_done());
  EXPECT_EQ(exec.busy_sm_seconds(), oracle.busy_sm_seconds());
}

TEST(SoloChain, BackToBackProgramsRunAsOneChain) {
  // The naive scheduler submits a job's six stage programs at once, the
  // callback on the last: on a lone stream each submission extends the
  // armed chain, so the whole job is one event, at the oracle's time.
  const dnn::Network net = dnn::resnet18();
  const dnn::CostModel cost = dnn::CostModel::calibrated();
  const dnn::StagePlan plan = dnn::partition_into_stages(net, cost, 6);
  std::vector<KernelProgram> programs;
  for (const auto& st : plan.stages) {
    programs.emplace_back(dnn::stage_kernels(net, cost, st));
  }

  sim::Engine engine;
  Executor exec(engine, rtx2080ti(), SpeedupModel::rtx2080ti(),
                SharingParams{});
  const auto s = exec.create_stream(exec.create_context(34),
                                    StreamPriority::kLow);
  std::int64_t done = -1;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    CompletionFn fn;
    if (i + 1 == programs.size()) fn = [&done](SimTime t) { done = t.ns; };
    exec.enqueue_program(s, programs[i], /*tag=*/5, std::move(fn));
  }
  engine.run();

  sim::Engine oracle_engine;
  ReferenceExecutor oracle(oracle_engine, rtx2080ti(),
                           SpeedupModel::rtx2080ti(), SharingParams{});
  const auto os = oracle.create_stream(oracle.create_context(34),
                                       StreamPriority::kLow);
  std::vector<KernelDesc> whole;
  for (const auto& p : programs) {
    whole.insert(whole.end(), p.kernels().begin(), p.kernels().end());
  }
  std::int64_t oracle_done = -1;
  oracle.enqueue_batch(os, whole,
                       [&oracle_done](SimTime t) { oracle_done = t.ns; });
  oracle_engine.run();

  EXPECT_EQ(done, oracle_done);
  EXPECT_EQ(engine.processed_count(), 1u);
  EXPECT_EQ(exec.total_work_done(), oracle.total_work_done());
  EXPECT_EQ(exec.busy_sm_seconds(), oracle.busy_sm_seconds());
}

TEST(SoloChain, EnqueueOnSkippedBoundaryRetiresTheEndingKernelFirst) {
  // Stream A runs four kernels as one stage; a foreign enqueue on stream B
  // lands exactly where A's second kernel ends — a boundary the solo chain
  // skipped.
  Plan plan;
  plan.context_sms = {34, 34};
  plan.streams = {{0, StreamPriority::kHigh}, {1, StreamPriority::kLow}};
  Batch stage;
  stage.at_ns = 0;
  for (int k = 0; k < 4; ++k) {
    KernelDesc d;
    d.op = k % 2 ? OpClass::kReLU : OpClass::kConv;
    d.work_sm_seconds = 1e-3 * (k + 1);
    d.overhead_seconds = 5e-6;
    d.tag = static_cast<std::uint64_t>(k + 1);
    stage.kernels.push_back(d);
  }
  plan.batches.push_back(stage);

  const Outcome base = Harness<ReferenceExecutor>(plan).run();
  const auto ends = solo_boundaries(base.trace);
  ASSERT_EQ(ends.size(), 3u);
  const std::int64_t at = ends[1];

  // Scheduled behind the pending completion, the oracle retires A's kernel
  // first too: every byte matches, trace order included.
  const Outcome chain = Harness<Executor>(plan).run(Probe::kEnqueue, at);
  const Outcome behind =
      Harness<ReferenceExecutor>(plan).run(Probe::kEnqueue, at);
  expect_identical(chain, behind);
  // The chain executor orders the tie the same way however the foreign
  // event was scheduled.
  const Outcome chain_first =
      Harness<Executor>(plan).run(Probe::kEnqueue, at, /*two_step=*/false);
  expect_identical(chain_first, chain);

  // Scheduled ahead of the completion, the oracle starts B while A's
  // kernel sits finished with zero work left: no share, rate or completion
  // time moves, only the order of same-instant trace events differs.
  const Outcome ahead = Harness<ReferenceExecutor>(plan).run(
      Probe::kEnqueue, at, /*two_step=*/false);
  EXPECT_EQ(chain.callbacks, ahead.callbacks);
  EXPECT_EQ(chain.work, ahead.work);
  EXPECT_EQ(chain.busy, ahead.busy);
  EXPECT_NE(chain.trace, ahead.trace);
  auto sorted_chain = chain.trace;
  auto sorted_ahead = ahead.trace;
  std::sort(sorted_chain.begin(), sorted_chain.end());
  std::sort(sorted_ahead.begin(), sorted_ahead.end());
  EXPECT_EQ(sorted_chain, sorted_ahead);
}

TEST(SoloChain, GettersSeeSkippedKernelsRetired) {
  // Between chain events the getters must answer as the per-kernel
  // executor would: the kernels that ended by now are gone.
  sim::Engine engine;
  Executor exec(engine, rtx2080ti(), SpeedupModel::rtx2080ti(),
                SharingParams{});
  const auto ctx = exec.create_context(68);
  const auto s = exec.create_stream(ctx, StreamPriority::kHigh);
  KernelDesc k;
  k.op = OpClass::kConv;
  k.work_sm_seconds = 32.0;  // ~1 s each at 68 SMs
  exec.enqueue_batch(s, {k, k, k}, {});
  EXPECT_EQ(exec.stream_queue_length(s), 2u);
  engine.run_until(SimTime::from_sec(1.5));
  EXPECT_EQ(exec.stream_queue_length(s), 1u);
  EXPECT_EQ(exec.running_kernel_count(), 1);
  EXPECT_NEAR(exec.total_work_done(), 32.0, 1e-6);
  engine.run();
  EXPECT_FALSE(exec.stream_busy(s));
  EXPECT_EQ(engine.processed_count(), 1u);
}

}  // namespace
}  // namespace sgprs::gpu
