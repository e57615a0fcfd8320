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
// sees a few hundred per device class; the cap only bounds memory when a
// device runs many more streams than that.
constexpr std::size_t kShareMemoCap = 4096;
// The memo index's first size, allocated at the first contended lookup (a
// power of two; it doubles to stay at most half full).
constexpr std::size_t kShareMemoSlots = 16;

// Solo steps the solo memo holds before it starts over. Stage programs
// keep it to a few hundred per device class; the cap bounds memory for
// executors fed one-off batches (enqueue_batch programs are never reused).
constexpr std::size_t kSoloMemoCap = 16384;
// The solo memo index's first size (a power of two; it doubles to stay at
// most half full).
constexpr std::size_t kSoloMemoSlots = 16;

// A share-memo key's hash term for stream `sid` holding key byte `b`
// (nonzero: the stream runs): splitmix64's finaliser of the pair. A key
// hashes to the XOR of its running streams' terms, so a change of one
// stream updates the hash in place.
std::uint64_t share_term(std::size_t sid, std::uint8_t b) {
  std::uint64_t z = ((static_cast<std::uint64_t>(sid) << 8) | b) +
                    0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The hash of a stored share-memo key: what the executor keeps in place.
std::uint64_t stored_key_hash(const std::uint8_t* key, std::size_t n) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (key[i] != 0) h ^= share_term(i, key[i]);
  }
  return h;
}

// Mixes a solo-memo key: a program id and a solo class.
std::uint64_t hash_solo(std::uint64_t program, std::uint32_t solo_class) {
  std::uint64_t h = (program * 0x9e3779b97f4a7c15ULL) ^ solo_class;
  return h ^ (h >> 29);
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

Executor::Entry& Executor::EntryQueue::push_back() {
  return items_.emplace_back();
}

void Executor::EntryQueue::pop_front() {
  items_[head_].owned.reset();
  if (++head_ == items_.size()) {
    clear();
  } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
    // A queue that never drains still reclaims its consumed prefix.
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void Executor::EntryQueue::clear() {
  items_.clear();
  head_ = 0;
}

Executor::Executor(sim::Engine& engine, const DeviceSpec& device,
                   SpeedupModel speedup, SharingParams sharing)
    : engine_(engine),
      last_update_(engine.now()),
      own_memo_(std::make_unique<DeviceClassMemo>(DeviceClass{
          device.total_sms, std::move(speedup), sharing, {}, {}})) {
  memo_ = own_memo_.get();
}

ContextId Executor::create_context(int sm_limit) {
  SGPRS_CHECK_MSG(own_memo_, "a context created after attach_memo");
  SGPRS_CHECK_MSG(sm_limit > 0 && sm_limit <= own_memo_->cls_.total_sms,
                  "context SM limit must be in [1, total_sms]");
  contexts_.push_back(Context{});
  own_memo_->cls_.context_sms.push_back(sm_limit);
  return static_cast<ContextId>(contexts_.size() - 1);
}

StreamId Executor::create_stream(ContextId ctx, StreamPriority priority) {
  SGPRS_CHECK_MSG(own_memo_, "a stream created after attach_memo");
  SGPRS_CHECK(ctx >= 0 && ctx < context_count());
  Stream s;
  s.ctx = ctx;
  s.priority = priority;
  streams_.push_back(std::move(s));
  own_memo_->cls_.streams.push_back(DeviceClass::Stream{ctx, priority});
  // A memo key has one byte per stream: the new width starts afresh.
  own_memo_->clear_shares();
  // A stream added after the first submit widens the set and key too.
  if (!running_.empty()) size_scratch();
  return static_cast<StreamId>(streams_.size() - 1);
}

void Executor::attach_memo(DeviceClassMemo& memo) {
  SGPRS_CHECK_MSG(memo.device_class() == device_class(),
                  "a device-class memo attached to an executor of another "
                  "class");
  memo_ = &memo;
  own_memo_.reset();
  // The stream count is fixed from here on, so the completion path's
  // scratch buffers take their size now: an executor joining a memo that
  // others warmed allocates nothing at its first events either.
  size_scratch();
}

void Executor::size_scratch() {
  const std::size_t n = streams_.size();
  running_words_ = static_cast<std::uint32_t>((n + 63) / 64);
  running_.assign(running_words_ + (n + 7) / 8, 0);
  key_hash_ = 0;
  for (StreamId sid = 0; sid < stream_count(); ++sid) {
    const auto& run = streams_[sid].running;
    if (run) mark_running(sid, run->desc->op);
  }
  callbacks_.reserve(n);
}

void Executor::check_not_ahead() const {
  SGPRS_CHECK_MSG(last_update_ <= engine_.now(),
                  "executor entered at " << engine_.now().ns
                      << " ns with its contended chain stepped to "
                      << last_update_.ns << " ns: an input arrived before "
                      << "the input bound");
}

void Executor::settle() {
  check_not_ahead();
  catch_up(engine_.now());
}

int Executor::context_sm_limit(ContextId c) const {
  SGPRS_CHECK(c >= 0 && c < context_count());
  check_not_ahead();
  return device_class().context_sms[c];
}

ContextId Executor::stream_context(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  check_not_ahead();
  return streams_[s].ctx;
}

StreamPriority Executor::stream_priority(StreamId s) const {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  check_not_ahead();
  return streams_[s].priority;
}

std::size_t Executor::stream_queue_length(StreamId s) {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  settle();
  std::size_t queued = 0;
  for (const Entry& e : streams_[s].queue) queued += e.program->size() - e.next;
  return queued;
}

bool Executor::stream_busy(StreamId s) {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  settle();
  return streams_[s].running.has_value() || !streams_[s].queue.empty();
}

int Executor::running_kernel_count() {
  settle();
  return running_count_;
}

int Executor::context_running_count(ContextId c) {
  SGPRS_CHECK(c >= 0 && c < context_count());
  settle();
  return contexts_[c].running_count;
}

double Executor::total_work_done() {
  settle();
  return work_done_;
}

double Executor::busy_sm_seconds() {
  // Up to date only as of last_update_; good enough for end-of-run stats.
  settle();
  return busy_sm_seconds_;
}

SimTime Executor::running_remaining(StreamId s) {
  SGPRS_CHECK(s >= 0 && s < stream_count());
  settle();
  const auto& run = streams_[s].running;
  if (!run) return SimTime::max();
  const double elapsed = (engine_.now() - last_update_).to_sec();
  double rem_over = std::max(0.0, run->rem_overhead - elapsed);
  double consumed = std::max(0.0, elapsed - run->rem_overhead);
  double rem_work = std::max(0.0, run->rem_work - consumed * run->rate);
  const double rate = run->rate > 0.0 ? run->rate : 1e-9;
  return SimTime::from_sec(rem_over + rem_work / rate);
}

void Executor::enqueue_program(StreamId stream, const KernelProgram& program,
                               std::uint64_t tag, CompletionFn on_done) {
  submit(stream, &program, nullptr, tag, std::move(on_done));
}

void Executor::enqueue(StreamId stream, KernelDesc kernel,
                       CompletionFn on_done) {
  std::vector<KernelDesc> kernels;
  kernels.push_back(std::move(kernel));
  enqueue_batch(stream, std::move(kernels), std::move(on_done));
}

void Executor::enqueue_batch(StreamId stream, std::vector<KernelDesc> kernels,
                             CompletionFn on_all_done) {
  SGPRS_CHECK_MSG(!kernels.empty(), "enqueue_batch requires >= 1 kernel");
  auto program = std::make_unique<const KernelProgram>(std::move(kernels));
  const KernelProgram* p = program.get();
  submit(stream, p, std::move(program), 0, std::move(on_all_done));
}

void Executor::submit(StreamId stream, const KernelProgram* program,
                      std::unique_ptr<const KernelProgram> owned,
                      std::uint64_t tag, CompletionFn on_done) {
  SGPRS_CHECK(stream >= 0 && stream < stream_count());
  check_not_ahead();
  // An executor that no memo was attached to sizes its buffers here.
  if (running_.empty()) size_scratch();
  Stream& s = streams_[stream];
  Entry& e = s.queue.push_back();
  e.program = program;
  e.owned = std::move(owned);
  e.next = 0;
  e.tag = tag;
  e.on_done = std::move(on_done);
  if (!s.running) {
    start_if_idle(stream);
    return;
  }
  if (solo_ != stream || !solo_open_) return;
  // The armed chain ran off the queue without a callback: it now runs on
  // through this entry, as if the entry had been queued when it was armed.
  solo_end_ += SimTime::from_ns(solo_steps(s, *program)[0].tail_ns);
  solo_open_ = !e.on_done;
  engine_.cancel(completion_event_);
  completion_event_ =
      engine_.schedule_at(solo_end_, [this] { on_completion_event(); });
}

void Executor::start_if_idle(StreamId stream) {
  if (streams_[stream].running) return;
  // Starting a second stream ends any solo chain: settle it up to now.
  catch_up(engine_.now());
  advance_progress(engine_.now());
  start_next(stream, engine_.now());
  reschedule();
}

void Executor::purge_all() {
  // Credit busy-SM time and work completed up to the crash instant, then
  // drop everything in flight on the floor: no callbacks, no trace end
  // events, no work_done_ for the unfinished residue.
  settle();
  advance_progress(engine_.now());
  for (auto& s : streams_) s.queue.clear();
  for_each_running([this](StreamId sid) { stop_running(sid); });
  SGPRS_CHECK(running_count_ == 0);
  cancel_completion();
  callbacks_.clear();
  needs_reschedule_ = false;
}

double Executor::priority_weight(StreamPriority p) const {
  const SharingParams& sharing = memo_->cls_.sharing;
  return p == StreamPriority::kHigh ? sharing.high_priority_weight
                                    : sharing.low_priority_weight;
}

void Executor::advance_progress(SimTime to) {
  // The work and busy increments go in stream by stream, in the order a
  // pass over every stream adds them (an idle stream adds nothing);
  // retire_finished adds the residues only after all of them.
  const double elapsed = (to - last_update_).to_sec();
  last_update_ = to;
  if (elapsed <= 0.0) return;
  for_each_running(
      [&](StreamId sid) { advance_kernel(*streams_[sid].running, elapsed); });
}

Executor::Progress Executor::progress(Running& r, double elapsed) {
  Progress p;
  double dt = elapsed;
  if (r.rem_overhead > 0.0) {
    const double t = std::min(dt, r.rem_overhead);
    r.rem_overhead -= t;
    dt -= t;
  }
  if (dt > 0.0) {
    p.work = std::min(r.rem_work, dt * r.rate);
    r.rem_work -= p.work;
  }
  p.busy = elapsed * r.granted_sms;
  return p;
}

void Executor::advance_kernel(Running& r, double elapsed) {
  // Adding a zero work increment is exact: work_done_ is never -0.0.
  const Progress p = progress(r, elapsed);
  work_done_ += p.work;
  busy_sm_seconds_ += p.busy;
}

void Executor::start_next(StreamId sid, SimTime at) {
  Stream& s = streams_[sid];
  SGPRS_CHECK(!s.running);
  if (s.queue.empty()) return;
  Entry& e = s.queue.front();
  const KernelDesc& k = e.program->kernels()[e.next];
  Running& r = s.running.emplace();
  r.desc = &k;
  r.tag = e.tag_of(k);
  r.rem_overhead = k.overhead_seconds;
  r.rem_work = k.work_sm_seconds;
  if (++e.next == e.program->size()) {
    r.on_done = std::move(e.on_done);
    r.owned = std::move(e.owned);
    s.queue.pop_front();
  }
  ++running_count_;
  ++contexts_[s.ctx].running_count;
  mark_running(sid, k.op);
  if (trace_) trace_->on_kernel_start(at, s.ctx, sid, traced(k, r.tag));
}

void Executor::mark_running(StreamId sid, OpClass op) {
  running_[sid / 64] |= std::uint64_t{1} << (sid % 64);
  std::uint8_t& b = key()[sid];
  b = static_cast<std::uint8_t>(static_cast<unsigned>(op) + 1);
  key_hash_ ^= share_term(sid, b);
}

void Executor::stop_running(StreamId sid) {
  Stream& s = streams_[sid];
  s.running.reset();
  --running_count_;
  --contexts_[s.ctx].running_count;
  running_[sid / 64] &= ~(std::uint64_t{1} << (sid % 64));
  std::uint8_t& b = key()[sid];
  key_hash_ ^= share_term(sid, b);
  b = 0;
}

const KernelDesc& Executor::traced(const KernelDesc& k, std::uint64_t tag) {
  if (k.tag == tag) return k;
  // Assigning the label reuses the scratch string's storage.
  trace_desc_.op = k.op;
  trace_desc_.work_sm_seconds = k.work_sm_seconds;
  trace_desc_.overhead_seconds = k.overhead_seconds;
  trace_desc_.tag = tag;
  trace_desc_.label = k.label;
  return trace_desc_;
}

ShareGrant Executor::solo_grant(const Stream& s, OpClass op) {
  DeviceClassMemo& m = *memo_;
  const std::size_t row = static_cast<std::size_t>(s.ctx) * 2 +
                          static_cast<std::size_t>(s.priority);
  const std::size_t key = row * kOpClassCount + static_cast<std::size_t>(op);
  if (key >= m.solo_grants_.size()) {
    m.solo_grants_.resize((row + 1) * kOpClassCount);
  }
  ShareGrant& g = m.solo_grants_[key];
  if (g.rate == 0.0) {
    const DeviceClass& cls = m.cls_;
    g = compute_shares(cls.speedup, cls.total_sms, cls.context_sms,
                       {ShareRequest{s.ctx, priority_weight(s.priority), op}},
                       cls.sharing)
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
    for_each_running([this](StreamId sid) { arm_solo_chain(sid); });
    return;
  }

  completion_event_ = engine_.schedule_at(
      contended_boundary(), [this] { on_completion_event(); });
}

SimTime Executor::contended_boundary() {
  const ShareGrant* grants = contended_grants();
  double min_finish = std::numeric_limits<double>::infinity();
  for_each_running([&](StreamId sid) {
    Running& r = *streams_[sid].running;
    r.rate = grants[sid].rate;
    r.granted_sms = grants[sid].sms;
    SGPRS_CHECK(r.rate > 0.0);
    const double finish = r.rem_overhead + r.rem_work / r.rate;
    min_finish = std::min(min_finish, finish);
  });
  return last_update_ + finish_delay(min_finish);
}

void Executor::step_contended() {
  // Between this event and the input bound nothing but the running set
  // itself changes the device, so each boundary before the bound is
  // stepped here exactly as its own event would run it. A boundary at the
  // bound stays an event: the calendar's FIFO order then settles the tie
  // with the input as it would for the per-kernel path.
  cancel_completion();
  std::optional<SimTime> bound;
  for (;;) {
    if (running_count_ < 2 || !input_bound_) {
      reschedule();
      return;
    }
    const SimTime next = contended_boundary();
    if (!bound) bound = input_bound_();
    if (next >= *bound) {
      completion_event_ =
          engine_.schedule_at(next, [this] { on_completion_event(); });
      return;
    }
    advance_progress(next);
    SGPRS_CHECK_MSG(retire_finished(next) > 0,
                    "completion event fired with no finished kernel");
    if (!callbacks_.empty()) {
      completion_event_ =
          engine_.schedule_at(next, [this] { on_held_callbacks(); });
      return;
    }
  }
}

const ShareGrant* Executor::contended_grants() {
  // The key and its hash already describe the running set.
  DeviceClassMemo& m = *memo_;
  const std::size_t width = streams_.size();
  const std::uint8_t* key = this->key();
  const std::uint64_t hash = key_hash_;
  if (m.share_slots_.empty()) m.share_slots_.resize(kShareMemoSlots);
  std::size_t mask = m.share_slots_.size() - 1;
  std::size_t i = hash & mask;
  for (; m.share_slots_[i] != 0; i = (i + 1) & mask) {
    const std::size_t e = m.share_slots_[i] - 1;
    if (std::memcmp(key, m.share_keys_.data() + e * width, width) == 0) {
      return m.share_grants_.data() + e * width;
    }
  }

  // Miss: ask compute_shares, which stays the single source of grants. It
  // allocates, so the requests are built here rather than kept.
  if (m.share_keys_.size() == kShareMemoCap * width) {
    m.clear_shares();
    i = hash & mask;
  }
  std::vector<ShareRequest> reqs;
  reqs.reserve(static_cast<std::size_t>(running_count_));
  for_each_running([&](StreamId sid) {
    const Stream& s = streams_[sid];
    reqs.push_back(
        ShareRequest{s.ctx, priority_weight(s.priority), s.running->desc->op});
  });
  const DeviceClass& cls = m.cls_;
  const auto grants = compute_shares(cls.speedup, cls.total_sms,
                                     cls.context_sms, reqs, cls.sharing);
  const std::size_t base = m.share_keys_.size();
  m.share_keys_.insert(m.share_keys_.end(), key, key + width);
  m.share_grants_.resize(base + width);
  std::size_t k = 0;
  for_each_running(
      [&](StreamId sid) { m.share_grants_[base + sid] = grants[k++]; });
  const std::size_t entries = base / width + 1;
  m.share_slots_[i] = static_cast<std::uint32_t>(entries);

  // Keep the index at most half full.
  if (2 * entries > m.share_slots_.size()) {
    m.share_slots_.assign(2 * m.share_slots_.size(), 0);
    mask = m.share_slots_.size() - 1;
    for (std::size_t e = 0; e < entries; ++e) {
      std::size_t j =
          stored_key_hash(m.share_keys_.data() + e * width, width) & mask;
      while (m.share_slots_[j] != 0) j = (j + 1) & mask;
      m.share_slots_[j] = static_cast<std::uint32_t>(e + 1);
    }
  }
  return m.share_grants_.data() + base;
}

void Executor::arm_solo_chain(StreamId sid) {
  // The running kernel and every queued kernel up to the first one with a
  // callback run alone at their memoised solo grant, each starting at its
  // predecessor's end: the event the per-kernel path would fire at each
  // boundary is skipped, and catch_up() replays it when needed. A queued
  // entry adds its memoised remaining duration.
  Stream& s = streams_[sid];
  Running& r = *s.running;
  const ShareGrant g = solo_grant(s, r.desc->op);
  r.rate = g.rate;
  r.granted_sms = g.sms;
  SimTime end =
      last_update_ + finish_delay(r.rem_overhead + r.rem_work / r.rate);
  bool open = !r.on_done;
  if (open) {
    for (const Entry& e : s.queue) {
      end += SimTime::from_ns(solo_steps(s, *e.program)[e.next].tail_ns);
      if (e.on_done) {
        open = false;
        break;
      }
    }
  }
  solo_ = sid;
  solo_end_ = end;
  solo_open_ = open;
  completion_event_ =
      engine_.schedule_at(end, [this] { on_completion_event(); });
}

const Executor::SoloStep* Executor::solo_steps(const Stream& s,
                                               const KernelProgram& program) {
  // The solo class: a lone kernel's grant depends on its context only
  // through the context's SM limit, so the first context with the same
  // limit stands for all of them.
  DeviceClassMemo& m = *memo_;
  const std::vector<int>& sms = m.cls_.context_sms;
  const auto same_limit = std::find(sms.begin(), sms.end(), sms[s.ctx]);
  const std::uint32_t cls =
      static_cast<std::uint32_t>(same_limit - sms.begin()) * 2 +
      static_cast<std::uint32_t>(s.priority);
  const std::uint64_t h = hash_solo(program.id(), cls);
  if (m.solo_slots_.empty()) m.solo_slots_.resize(kSoloMemoSlots);
  std::size_t mask = m.solo_slots_.size() - 1;
  std::size_t i = h & mask;
  for (; m.solo_slots_[i] != 0; i = (i + 1) & mask) {
    const SoloRow& row = m.solo_rows_[m.solo_slots_[i] - 1];
    if (row.program == program.id() && row.solo_class == cls) {
      return m.solo_steps_.data() + row.first;
    }
  }

  // Miss: run each kernel alone from a cold start, with the per-kernel
  // path's arithmetic (catch_up's retirement of one kernel).
  const std::size_t n = program.size();
  if (m.solo_steps_.size() + n > kSoloMemoCap && !m.solo_rows_.empty()) {
    m.solo_rows_.clear();
    m.solo_steps_.clear();
    std::fill(m.solo_slots_.begin(), m.solo_slots_.end(), 0);
    i = h & mask;
  }
  const std::size_t first = m.solo_steps_.size();
  m.solo_steps_.resize(first + n);
  SoloStep* steps = m.solo_steps_.data() + first;
  for (std::size_t j = 0; j < n; ++j) {
    const KernelDesc& k = program.kernels()[j];
    const ShareGrant g = solo_grant(s, k.op);
    Running r;
    r.rem_overhead = k.overhead_seconds;
    r.rem_work = k.work_sm_seconds;
    r.rate = g.rate;
    r.granted_sms = g.sms;
    const SimTime d = finish_delay(r.rem_overhead + r.rem_work / r.rate);
    const double elapsed = d.to_sec();
    Progress p;
    if (elapsed > 0.0) p = progress(r, elapsed);
    SGPRS_CHECK_MSG(r.rem_overhead <= 0.0 && r.rem_work <= kWorkEpsilon,
                    "completion event fired with no finished kernel");
    steps[j].ns = d.ns;
    steps[j].work = p.work;
    steps[j].residue = r.rem_work;
    steps[j].busy = p.busy;
  }
  std::int64_t tail = 0;
  for (std::size_t j = n; j-- > 0;) {
    tail += steps[j].ns;
    steps[j].tail_ns = tail;
  }
  m.solo_rows_.push_back(
      SoloRow{program.id(), cls, static_cast<std::uint32_t>(first)});
  const std::size_t rows = m.solo_rows_.size();
  m.solo_slots_[i] = static_cast<std::uint32_t>(rows);

  // Keep the index at most half full.
  if (2 * rows > m.solo_slots_.size()) {
    m.solo_slots_.assign(2 * m.solo_slots_.size(), 0);
    mask = m.solo_slots_.size() - 1;
    for (std::size_t r = 0; r < rows; ++r) {
      std::size_t j =
          hash_solo(m.solo_rows_[r].program, m.solo_rows_[r].solo_class) & mask;
      while (m.solo_slots_[j] != 0) j = (j + 1) & mask;
      m.solo_slots_[j] = static_cast<std::uint32_t>(r + 1);
    }
  }
  return steps;
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
    if (trace_) trace_->on_kernel_end(end, s.ctx, sid, traced(*r.desc, r.tag));
    stop_running(sid);
    ++retired;
    // Its successors start cold: the memo retires those that end by now,
    // and start_next materialises the one the chain stops at.
    retired += retire_queued(sid, now);
    start_next(sid, last_update_);
    if (s.running) {
      const ShareGrant g = solo_grant(s, s.running->desc->op);
      s.running->rate = g.rate;
      s.running->granted_sms = g.sms;
    }
  }
  // A chain that ran dry leaves its pending event nothing to end.
  if (!s.running) cancel_completion();
  return retired;
}

int Executor::retire_queued(StreamId sid, SimTime now) {
  Stream& s = streams_[sid];
  int retired = 0;
  while (last_update_ < now && !s.queue.empty()) {
    Entry& e = s.queue.front();
    const std::size_t n = e.program->size();
    // An entry's last kernel carries its callback: start_next starts it.
    const std::size_t stop = e.on_done ? n - 1 : n;
    const SoloStep* steps = solo_steps(s, *e.program);
    for (; e.next < stop && last_update_ < now; ++e.next) {
      const SoloStep& step = steps[e.next];
      const SimTime end = last_update_ + SimTime::from_ns(step.ns);
      if (end > now) return retired;
      if (trace_) {
        const KernelDesc& k = e.program->kernels()[e.next];
        const std::uint64_t tag = e.tag_of(k);
        trace_->on_kernel_start(last_update_, s.ctx, sid, traced(k, tag));
        trace_->on_kernel_end(end, s.ctx, sid, traced(k, tag));
      }
      // advance_kernel's increments, then the residue, as catch_up adds
      // them for a materialised kernel.
      work_done_ += step.work;
      busy_sm_seconds_ += step.busy;
      work_done_ += step.residue;
      last_update_ = end;
      ++retired;
    }
    if (e.next < n) break;
    s.queue.pop_front();
  }
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
  advance_progress(now);

  // Retire every kernel that has finished (several can tie) and start its
  // stream's successor before firing callbacks, so that callbacks observe a
  // consistent executor state.
  callbacks_.clear();
  const int finished = started_now ? 0 : retire_finished(now);
  SGPRS_CHECK_MSG(finished > 0 || skipped > 0,
                  "completion event fired with no finished kernel");
  fire_callbacks(now);
  step_contended();
}

void Executor::on_held_callbacks() {
  // step_contended already retired this boundary's kernels and started
  // their successors at this instant.
  completion_event_ = sim::kInvalidEvent;
  fire_callbacks(engine_.now());
  step_contended();
}

int Executor::retire_finished(SimTime at) {
  // start_next touches only its own stream, so one pass in stream order
  // retires what a collect-then-retire pass would.
  int finished = 0;
  for_each_running([&](StreamId sid) {
    Stream& s = streams_[sid];
    Running& r = *s.running;
    if (r.rem_overhead > 0.0 || r.rem_work > kWorkEpsilon) return;
    work_done_ += r.rem_work;  // residue below epsilon
    if (trace_) trace_->on_kernel_end(at, s.ctx, sid, traced(*r.desc, r.tag));
    if (r.on_done) callbacks_.push_back(std::move(r.on_done));
    stop_running(sid);
    start_next(sid, at);
    ++finished;
  });
  return finished;
}

void Executor::fire_callbacks(SimTime now) {
  ++defer_depth_;
  for (auto& fn : callbacks_) fn(now);
  callbacks_.clear();
  --defer_depth_;
  needs_reschedule_ = false;
}

}  // namespace sgprs::gpu
