// Discrete-event simulation engine.
//
// A single-threaded calendar of timestamped callbacks. Events scheduled for
// the same instant fire in scheduling (FIFO) order, which keeps runs
// deterministic. Cancellation is O(1) (generation check, lazy deletion on
// pop).
//
// Storage is a slab of event nodes recycled through a free list, indexed by
// a flat 4-ary heap of (time, seq, slot) entries, with the callback held
// in a fixed-capacity inplace buffer — so schedule_at / cancel / step touch
// no allocator once the slab and heap have grown to the run's high-water
// mark. EventIds carry a per-slot generation tag: cancelling a stale id
// after its slot was recycled is a cheap mismatch, never a hash lookup and
// never a fire of the wrong callback. docs/ARCHITECTURE.md § "Event
// calendar" is the design note.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/heap.hpp"
#include "common/inplace_function.hpp"
#include "common/time.hpp"

namespace sgprs::sim {

using common::SimTime;

/// Handle of a pending event: (generation << 32) | (slot + 1), so 0 stays
/// the invalid sentinel. Treat as opaque.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Event callback. Inline capacity covers every capture the schedulers and
/// runner create (the largest today: 3 words, in rt::Runner::arm_release
/// and the fleet runtime's recovery timer);
/// outgrowing it is a static_assert at the schedule_at call site, never a
/// silent heap allocation. 40 bytes keeps the whole EventNode at exactly
/// one cache line.
using EventFn = common::InplaceFunction<void(), 40>;

class Engine {
 public:
  // Member aliases so generic drivers (benches) can say EngineT::EventId.
  using EventId = sim::EventId;
  using EventFn = sim::EventFn;
  static constexpr EventId kInvalidEvent = sim::kInvalidEvent;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// The target of the run_until() in progress, or SimTime::max() when none
  /// is (under step() and run(), and between runs). An event handler can
  /// rely on no event of this calendar firing past it before the call
  /// returns; gpu::Executor bounds its contended chains by it.
  SimTime horizon() const { return horizon_; }

  /// Schedules `fn` (any void() callable fitting EventFn's inline buffer)
  /// to run at absolute time `t` (must be >= now()). Templated so the
  /// capture is constructed directly in the slab node — no temporary
  /// wrapper, no indirect relocate on the schedule path.
  template <typename F>
  EventId schedule_at(SimTime t, F&& fn) {
    SGPRS_CHECK_MSG(t >= now_, "cannot schedule event in the past: t="
                                   << t.ns << " now=" << now_.ns);
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      SGPRS_CHECK(fn != nullptr);
    }
    const std::uint32_t slot = acquire_slot();
    EventNode& node = nodes_[slot];
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      node.fn = std::forward<F>(fn);  // already type-erased: move the wrapper
    } else {
      node.fn.emplace(std::forward<F>(fn));
    }
    node.occupant_seq = static_cast<std::uint32_t>(next_seq_++);
    staging_.push_back(HeapEntry{t, node.occupant_seq, slot});
    ++live_;
    ++scheduled_;
    return (static_cast<EventId>(node.generation) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  /// Schedules `fn` to run `dt` after now() (dt must be >= 0).
  template <typename F>
  EventId schedule_after(SimTime dt, F&& fn) {
    return schedule_at(now_ + dt, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns false if it already fired or was
  /// cancelled (both are benign — cancellation is idempotent).
  bool cancel(EventId id);

  bool has_pending() const { return live_ > 0; }
  std::size_t pending_count() const { return live_; }
  std::size_t processed_count() const { return processed_; }
  std::size_t scheduled_count() const { return scheduled_; }
  std::size_t cancelled_count() const { return cancelled_; }

  /// Time of the earliest pending event, or SimTime::max() if none.
  /// Non-const: prunes cancelled heap entries off the top in passing (the
  /// pending set itself is unchanged).
  SimTime next_event_time();

  /// Runs until the calendar is empty.
  void run();

  /// Runs all events with time <= `t`, then advances now() to exactly `t`.
  void run_until(SimTime t);

  /// Processes a single event. Returns false if the calendar is empty.
  bool step();

  /// Introspection for tests and benches: slots ever allocated (the
  /// high-water mark of simultaneously pending events) and raw calendar
  /// entries (pending + not-yet-pruned cancellations).
  std::size_t slab_size() const { return nodes_.size(); }
  std::size_t heap_size() const { return heap_.size() + staging_.size(); }

 private:
  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  /// One slab slot; exactly one cache line. `generation` counts recycles of
  /// the slot: it is baked into the EventId at schedule time and bumped
  /// whenever the slot is released (fire or cancel), so cancel() on a stale
  /// id is a cheap mismatch. A slot would need 2^32 recycles for a tag to
  /// wrap back onto a live stale id. `occupant_seq` is the (truncated)
  /// schedule sequence of the current occupant, used to recognize stale
  /// calendar entries.
  struct EventNode {
    EventFn fn;
    std::uint32_t generation = 0;
    std::uint32_t occupant_seq = 0;
    std::uint32_t next_free = kNoFree;
  };

  /// 16 bytes: sift work is memory-bound, so entry size is throughput.
  /// `seq` is the schedule counter truncated to 32 bits and compared
  /// circularly; the seq window alive in the calendar is bounded by memory
  /// (one 64-byte node per pending event), far below the 2^31 circular-
  /// compare horizon, so FIFO tie-break order is exact.
  struct HeapEntry {
    SimTime t;
    std::uint32_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
  };
  struct EntryLess {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.t != b.t) return a.t < b.t;
      return static_cast<std::int32_t>(a.seq - b.seq) < 0;
    }
  };

  /// A calendar entry is live iff its slot still holds the event it was
  /// pushed for: same occupant sequence and the callback not yet consumed
  /// (cancel nulls the callback but cannot touch occupant_seq).
  bool is_live(const HeapEntry& e) const {
    const EventNode& n = nodes_[e.slot];
    return n.occupant_seq == e.seq && n.fn != nullptr;
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Pops + runs the (already pruned, already popped) heap entry.
  void fire(const HeapEntry& e);
  /// run_until's loop: fires every live event with time <= `t`.
  void fire_until(SimTime t);
  /// Drains the staging buffer into the heap (bulk-heapify when large).
  /// Must run before any top()/pop(); pop paths call it once per loop.
  void flush_staging() {
    if (!staging_.empty()) heap_.merge_from(staging_);
  }

  SimTime now_ = SimTime::zero();
  SimTime horizon_ = SimTime::max();
  std::uint64_t next_seq_ = 1;
  std::size_t processed_ = 0;
  std::size_t scheduled_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t live_ = 0;
  common::MinHeap<HeapEntry, EntryLess> heap_;
  /// Fresh schedules land here unsorted; a burst of k events costs O(k)
  /// to stage + one O(n) heapify instead of k O(log n) sift-ups.
  std::vector<HeapEntry> staging_;
  std::vector<EventNode> nodes_;
  std::uint32_t free_head_ = kNoFree;
};

}  // namespace sgprs::sim
