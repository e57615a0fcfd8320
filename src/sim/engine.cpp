#include "sim/engine.hpp"

#include <utility>

namespace sgprs::sim {

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNoFree) {
    const std::uint32_t slot = free_head_;
    free_head_ = nodes_[slot].next_free;
    nodes_[slot].next_free = kNoFree;
    return slot;
  }
  SGPRS_CHECK_MSG(nodes_.size() < static_cast<std::size_t>(kNoFree),
                  "event slab exhausted");
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  EventNode& node = nodes_[slot];
  ++node.generation;  // invalidates every outstanding id / heap entry
  node.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

bool Engine::cancel(EventId id) {
  if (id == kInvalidEvent) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= nodes_.size() || nodes_[slot].generation != generation) {
    return false;  // already fired/cancelled (slot since recycled or freed)
  }
  nodes_[slot].fn = nullptr;
  release_slot(slot);
  ++cancelled_;
  // The calendar entry stays behind (in the heap or still in staging); the
  // generation bump makes it stale and it is skipped when it reaches the
  // top. Cancel-heavy clients (the executor re-arms its completion event
  // on every enqueue) would otherwise grow the calendar without bound and
  // pay a full sift per stale pop, so once stale entries dominate, drop
  // them all and re-heapify in O(live).
  if (heap_.size() + staging_.size() > 4 * live_ + 64) {
    flush_staging();
    heap_.compact([this](const HeapEntry& e) { return is_live(e); });
  }
  return true;
}

SimTime Engine::next_event_time() {
  if (live_ == 0) {
    heap_.clear();  // everything left is stale
    staging_.clear();
    return SimTime::max();
  }
  flush_staging();
  while (!is_live(heap_.top())) heap_.pop();
  return heap_.top().t;
}

void Engine::fire(const HeapEntry& e) {
  // Move the callback out and release the slot *before* invoking: the
  // callback may schedule into (and legitimately reuse) this very slot, or
  // grow the slab and move every node.
  EventFn fn = std::move(nodes_[e.slot].fn);
  release_slot(e.slot);
  SGPRS_CHECK(e.t >= now_);
  now_ = e.t;
  ++processed_;
  fn.call_and_reset();
}

bool Engine::step() {
  if (live_ == 0) {
    heap_.clear();  // everything left is stale
    staging_.clear();
    return false;
  }
  flush_staging();
  for (;;) {  // live_ > 0 guarantees a live entry exists
    if (!is_live(heap_.top())) {
      heap_.pop();
      continue;
    }
    fire(heap_.pop());
    return true;
  }
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(SimTime t) {
  SGPRS_CHECK(t >= now_);
  horizon_ = t;
  try {
    fire_until(t);
  } catch (...) {
    horizon_ = SimTime::max();
    throw;
  }
  horizon_ = SimTime::max();
  if (live_ == 0) {
    heap_.clear();
    staging_.clear();
  }
  now_ = t;
}

void Engine::fire_until(SimTime t) {
  // Locate each event exactly once: prune stale tops in passing, stop at
  // the first live entry past the horizon, fire everything before it.
  while (live_ > 0) {
    flush_staging();  // callbacks may have scheduled since the last pop
    if (!is_live(heap_.top())) {
      heap_.pop();
      continue;
    }
    if (heap_.top().t > t) break;
    fire(heap_.pop());
  }
}

}  // namespace sgprs::sim
