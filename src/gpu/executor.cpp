#include "gpu/executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.hpp"

namespace sgprs::gpu {
namespace {

// Work below this many 1-SM seconds counts as finished (guards against
// floating-point residue after integer-nanosecond event rounding).
constexpr double kWorkEpsilon = 1e-12;

// Running sets the share memo holds before it starts over. A curated pool
// sees a few hundred per device; the cap only bounds memory when a device
// runs many more streams than that.
constexpr std::size_t kShareMemoCap = 4096;
// The memo index's first size, allocated at the first contended lookup (a
// power of two; it doubles to stay at most half full).
constexpr std::size_t kShareMemoSlots = 16;

// FNV-1a over a share-memo key.
std::uint64_t hash_key(const std::uint8_t* key, std::size_t n) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= key[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Delay until a kernel `finish` seconds from done completes, rounded up to
// the next nanosecond so the event never fires before the kernel's exact
// finish instant.
SimTime finish_delay(double finish) {
  const auto delta =
      SimTime::from_ns(static_cast<std::int64_t>(std::ceil(finish * 1e9)));
  return std::max(delta, SimTime::from_ns(0));
}

}  // namespace

void Executor::KernelQueue::push_back(Pending p) {
  items_.push_back(std::move(p));
}

void Executor::KernelQueue::pop_front() {
  if (++head_ == items_.size()) {
    clear();
  } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
    // A queue that never drains still reclaims its consumed prefix.
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void Executor::KernelQueue::clear() {
  items_.clear();
  head_ = 0;
}

Executor::Executor(sim::Engine& engine, DeviceSpec device,
                   SpeedupModel speedup, SharingParams sharing)
    : engine_(engine),
      device_(std::move(device)),
      speedup_(std::move(speedup)),
      sharing_(sharing),
      last_update_(engine.now()) {}

ContextId Executor::create_context(int sm_limit) {
  SGPRS_CHECK_MSG(sm_limit > 0 && sm_limit <= device_.total_sms,
                  "context SM limit must be in [1, total_sms]");
  contexts_.push_back(Context{});
  context_sms_.push_back(sm_limit);
  return static_cast<ContextId>(contexts_.size() - 1);
}

StreamId Executor::create_stream(ContextId ctx, StreamPriority priority) {
  SGPRS_CHECK(ctx >= 0 && ctx < context_count());
  Stream s;
  s.ctx = ctx;
  s.priority = priority;
  streams_.push_back(std::move(s));
  // A memo key has one byte per stream: the new width starts afresh.
  clear_share_memo();
  return static_cast<StreamId>(streams_.size() - 1);
}

int Executor::context_sm_limit(ContextId c) const {
  SGPRS_CHECK(c >= 0 && c < context_count());
  return context_sms_[c];
}

ContextId Executor::stream_context(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  return streams_[s].ctx;
}

StreamPriority Executor::stream_priority(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  return streams_[s].priority;
}

std::size_t Executor::stream_queue_length(StreamId s) {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  catch_up(engine_.now());
  return streams_[s].queue.size();
}

bool Executor::stream_busy(StreamId s) {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  catch_up(engine_.now());
  return streams_[s].running.has_value() || !streams_[s].queue.empty();
}

int Executor::running_kernel_count() {
  catch_up(engine_.now());
  return running_count_;
}

int Executor::context_running_count(ContextId c) {
  SGPRS_CHECK(c >= 0 && c < context_count());
  catch_up(engine_.now());
  return contexts_[c].running_count;
}

double Executor::total_work_done() {
  catch_up(engine_.now());
  return work_done_;
}

double Executor::busy_sm_seconds() {
  // Up to date only as of last_update_; good enough for end-of-run stats.
  catch_up(engine_.now());
  return busy_sm_seconds_;
}

SimTime Executor::running_remaining(StreamId s) {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  catch_up(engine_.now());
  const auto& run = streams_[s].running;
  if (!run) return SimTime::max();
  const double elapsed = (engine_.now() - last_update_).to_sec();
  double rem_over = std::max(0.0, run->rem_overhead - elapsed);
  double consumed = std::max(0.0, elapsed - run->rem_overhead);
  double rem_work = std::max(0.0, run->rem_work - consumed * run->rate);
  const double rate = run->rate > 0.0 ? run->rate : 1e-9;
  return SimTime::from_sec(rem_over + rem_work / rate);
}

void Executor::enqueue(StreamId stream, KernelDesc kernel,
                       CompletionFn on_done) {
  push_kernel(stream, std::move(kernel), std::move(on_done));
  start_if_idle(stream);
}

void Executor::enqueue_batch(StreamId stream, std::vector<KernelDesc> kernels,
                             CompletionFn on_all_done) {
  SGPRS_CHECK_MSG(!kernels.empty(), "enqueue_batch requires >= 1 kernel");
  const std::size_t last = kernels.size() - 1;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    push_kernel(stream, std::move(kernels[i]),
                i == last ? std::move(on_all_done) : CompletionFn{});
  }
  // The whole batch is queued first, so a solo chain armed now spans it.
  start_if_idle(stream);
}

void Executor::push_kernel(StreamId stream, KernelDesc kernel,
                           CompletionFn on_done) {
  SGPRS_CHECK(stream >= 0 && stream < stream_count());
  SGPRS_CHECK(kernel.work_sm_seconds >= 0.0);
  SGPRS_CHECK(kernel.overhead_seconds >= 0.0);
  streams_[stream].queue.push_back(
      Pending{std::move(kernel), std::move(on_done)});
}

void Executor::start_if_idle(StreamId stream) {
  if (streams_[stream].running) return;
  // Starting a second stream ends any solo chain: settle it up to now.
  catch_up(engine_.now());
  advance_progress();
  start_next(stream, engine_.now());
  reschedule();
}

void Executor::purge_all() {
  // Credit busy-SM time and work completed up to the crash instant, then
  // drop everything in flight on the floor: no callbacks, no trace end
  // events, no work_done_ for the unfinished residue.
  catch_up(engine_.now());
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
  cancel_completion();
  needs_reschedule_ = false;
}

double Executor::priority_weight(StreamPriority p) const {
  return p == StreamPriority::kHigh ? sharing_.high_priority_weight
                                    : sharing_.low_priority_weight;
}

void Executor::advance_progress() {
  const SimTime now = engine_.now();
  const double elapsed = (now - last_update_).to_sec();
  last_update_ = now;
  if (elapsed <= 0.0 || running_count_ == 0) return;
  for (auto& s : streams_) {
    if (s.running) advance_kernel(*s.running, elapsed);
  }
}

void Executor::advance_kernel(Running& r, double elapsed) {
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

void Executor::start_next(StreamId sid, SimTime at) {
  Stream& s = streams_[sid];
  SGPRS_CHECK(!s.running);
  if (s.queue.empty()) return;
  Pending& p = s.queue.front();
  Running& r = s.running.emplace();
  r.desc = std::move(p.desc);
  r.on_done = std::move(p.on_done);
  r.rem_overhead = r.desc.overhead_seconds;
  r.rem_work = r.desc.work_sm_seconds;
  s.queue.pop_front();
  ++running_count_;
  ++contexts_[s.ctx].running_count;
  if (trace_) trace_->on_kernel_start(at, s.ctx, sid, r.desc);
}

ShareGrant Executor::solo_grant(const Stream& s, OpClass op) {
  const std::size_t row = static_cast<std::size_t>(s.ctx) * 2 +
                          static_cast<std::size_t>(s.priority);
  const std::size_t key = row * kOpClassCount + static_cast<std::size_t>(op);
  if (key >= solo_grants_.size()) {
    solo_grants_.resize((row + 1) * kOpClassCount);
  }
  ShareGrant& g = solo_grants_[key];
  if (g.rate == 0.0) {
    g = compute_shares(speedup_, device_.total_sms, context_sms_,
                       {ShareRequest{s.ctx, priority_weight(s.priority), op}},
                       sharing_)
            .front();
    SGPRS_CHECK(g.rate > 0.0);
  }
  return g;
}

void Executor::reschedule() {
  if (defer_depth_ > 0) {
    needs_reschedule_ = true;
    return;
  }
  cancel_completion();
  if (running_count_ == 0) return;
  if (running_count_ == 1) {
    for (StreamId sid = 0; sid < stream_count(); ++sid) {
      if (!streams_[sid].running) continue;
      arm_solo_chain(sid);
      return;
    }
  }

  const ShareGrant* grants = contended_grants();
  double min_finish = std::numeric_limits<double>::infinity();
  for (StreamId sid = 0; sid < stream_count(); ++sid) {
    if (!streams_[sid].running) continue;
    Running& r = *streams_[sid].running;
    r.rate = grants[sid].rate;
    r.granted_sms = grants[sid].sms;
    SGPRS_CHECK(r.rate > 0.0);
    const double finish = r.rem_overhead + r.rem_work / r.rate;
    min_finish = std::min(min_finish, finish);
  }

  completion_event_ = engine_.schedule_after(
      finish_delay(min_finish), [this] { on_completion_event(); });
}

const ShareGrant* Executor::contended_grants() {
  const std::size_t width = streams_.size();
  key_.resize(width);
  for (std::size_t sid = 0; sid < width; ++sid) {
    const auto& run = streams_[sid].running;
    key_[sid] = run ? static_cast<std::uint8_t>(
                          static_cast<unsigned>(run->desc.op) + 1)
                    : 0;
  }
  const std::uint64_t hash = hash_key(key_.data(), width);
  if (memo_slots_.empty()) memo_slots_.resize(kShareMemoSlots);
  std::size_t mask = memo_slots_.size() - 1;
  std::size_t i = hash & mask;
  for (; memo_slots_[i] != 0; i = (i + 1) & mask) {
    const std::size_t e = memo_slots_[i] - 1;
    if (std::memcmp(key_.data(), memo_keys_.data() + e * width, width) == 0) {
      return memo_grants_.data() + e * width;
    }
  }

  // Miss: ask compute_shares, which stays the single source of grants. It
  // allocates, so the requests are built here rather than kept.
  if (memo_keys_.size() == kShareMemoCap * width) {
    clear_share_memo();
    i = hash & mask;
  }
  std::vector<ShareRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(running_count_));
  for (const auto& s : streams_) {
    if (!s.running) continue;
    reqs.push_back(
        ShareRequest{s.ctx, priority_weight(s.priority), s.running->desc.op});
  }
  const auto grants = compute_shares(speedup_, device_.total_sms,
                                     context_sms_, reqs, sharing_);
  const std::size_t base = memo_keys_.size();
  memo_keys_.insert(memo_keys_.end(), key_.begin(), key_.end());
  memo_grants_.resize(base + width);
  for (std::size_t sid = 0, k = 0; sid < width; ++sid) {
    if (key_[sid] != 0) memo_grants_[base + sid] = grants[k++];
  }
  const std::size_t entries = base / width + 1;
  memo_slots_[i] = static_cast<std::uint32_t>(entries);

  // Keep the index at most half full.
  if (2 * entries > memo_slots_.size()) {
    memo_slots_.assign(2 * memo_slots_.size(), 0);
    mask = memo_slots_.size() - 1;
    for (std::size_t e = 0; e < entries; ++e) {
      std::size_t j = hash_key(memo_keys_.data() + e * width, width) & mask;
      while (memo_slots_[j] != 0) j = (j + 1) & mask;
      memo_slots_[j] = static_cast<std::uint32_t>(e + 1);
    }
  }
  return memo_grants_.data() + base;
}

void Executor::clear_share_memo() {
  memo_keys_.clear();
  memo_grants_.clear();
  std::fill(memo_slots_.begin(), memo_slots_.end(), 0);
}

void Executor::arm_solo_chain(StreamId sid) {
  // The running kernel and every queued kernel up to the first one with a
  // callback run alone at their memoised solo grant, each starting at its
  // predecessor's end: the event the per-kernel path would fire at each
  // boundary is skipped, and catch_up() replays it when needed.
  Stream& s = streams_[sid];
  Running& r = *s.running;
  const ShareGrant g = solo_grant(s, r.desc.op);
  r.rate = g.rate;
  r.granted_sms = g.sms;
  SimTime end =
      engine_.now() + finish_delay(r.rem_overhead + r.rem_work / r.rate);
  if (!r.on_done) {
    for (const Pending& p : s.queue) {
      const double rate = solo_grant(s, p.desc.op).rate;
      end += finish_delay(p.desc.overhead_seconds +
                          p.desc.work_sm_seconds / rate);
      if (p.on_done) break;
    }
  }
  solo_ = sid;
  completion_event_ =
      engine_.schedule_at(end, [this] { on_completion_event(); });
}

int Executor::catch_up(SimTime now) {
  if (solo_ < 0) return 0;
  const StreamId sid = solo_;
  Stream& s = streams_[sid];
  int retired = 0;
  // Ties: a kernel that ends exactly at `now` is retired before whatever
  // the caller is about to do at `now`. It has no work left, so retiring
  // it first moves no share, rate or completion time — only the order of
  // same-instant trace events can differ from a per-kernel run that
  // happened to fire the foreign event first. A kernel that also *starts*
  // at `now` stays: the per-kernel path would end it only at a fresh
  // zero-delay event, behind everything already pending at `now`.
  while (s.running && !s.running->on_done && last_update_ < now) {
    Running& r = *s.running;
    const SimTime end =
        last_update_ + finish_delay(r.rem_overhead + r.rem_work / r.rate);
    if (end > now) break;
    // advance_progress() then on_completion_event() at `end`, for the one
    // kernel running.
    const double elapsed = (end - last_update_).to_sec();
    last_update_ = end;
    if (elapsed > 0.0) advance_kernel(r, elapsed);
    SGPRS_CHECK_MSG(r.rem_overhead <= 0.0 && r.rem_work <= kWorkEpsilon,
                    "completion event fired with no finished kernel");
    work_done_ += r.rem_work;  // residue below epsilon
    if (trace_) trace_->on_kernel_end(end, s.ctx, sid, r.desc);
    s.running.reset();
    --running_count_;
    --contexts_[s.ctx].running_count;
    start_next(sid, end);
    if (s.running) {
      const ShareGrant g = solo_grant(s, s.running->desc.op);
      s.running->rate = g.rate;
      s.running->granted_sms = g.sms;
    }
    ++retired;
  }
  // A chain that ran dry leaves its pending event nothing to end.
  if (!s.running) cancel_completion();
  return retired;
}

void Executor::cancel_completion() {
  if (completion_event_ != sim::kInvalidEvent) {
    engine_.cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  solo_ = -1;
}

void Executor::on_completion_event() {
  completion_event_ = sim::kInvalidEvent;
  const SimTime now = engine_.now();
  // A solo chain's event retires its skipped kernels first. A kernel that
  // catch_up started exactly now is one the per-kernel path examines only
  // at a fresh zero-delay event, so it is left to the reschedule below.
  const int skipped = catch_up(now);
  const bool started_now = skipped > 0 && last_update_ == now;
  solo_ = -1;
  advance_progress();

  // Retire every kernel that has finished (several can tie) and start its
  // stream's successor before firing callbacks, so that callbacks observe a
  // consistent executor state. start_next touches only its own stream, so
  // one pass in stream order retires what a collect-then-retire pass would.
  int finished = 0;
  callbacks_.clear();
  for (StreamId sid = 0; sid < stream_count() && !started_now; ++sid) {
    Stream& s = streams_[sid];
    const bool done = s.running && s.running->rem_overhead <= 0.0 &&
                      s.running->rem_work <= kWorkEpsilon;
    if (!done) continue;
    ++finished;
    Running& r = *s.running;
    work_done_ += r.rem_work;  // residue below epsilon
    if (trace_) trace_->on_kernel_end(now, s.ctx, sid, r.desc);
    if (r.on_done) callbacks_.push_back(std::move(r.on_done));
    s.running.reset();
    --running_count_;
    --contexts_[s.ctx].running_count;
    start_next(sid, now);
  }
  SGPRS_CHECK_MSG(finished > 0 || skipped > 0,
                  "completion event fired with no finished kernel");

  ++defer_depth_;
  for (auto& fn : callbacks_) fn(now);
  callbacks_.clear();
  --defer_depth_;
  needs_reschedule_ = false;
  reschedule();
}

}  // namespace sgprs::gpu
