#include "sim/event_loop.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace maqs::sim {

EventId EventLoop::schedule(Duration delay, Handler fn) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

EventId EventLoop::schedule_at(TimePoint when, Handler fn) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    // free_slot() must not allocate: the free list can always hold every
    // slot.
    if (free_slots_.capacity() < slots_.capacity()) {
      free_slots_.reserve(slots_.capacity());
    }
  }
  const EventId id = next_id_++;
  slots_[slot].fn = std::move(fn);
  slots_[slot].id = id;
  live_.insert(id, slot);
  heap_.push_back(Key{when, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

void EventLoop::free_slot(std::uint32_t slot) noexcept {
  slots_[slot].fn = nullptr;
  slots_[slot].id = 0;
  free_slots_.push_back(slot);
}

bool EventLoop::cancel(EventId id) {
  const std::uint32_t slot = live_.erase(id);
  if (slot == util::FlatIndex::kNone) return false;
  // Destroyed on return, after the bookkeeping: the handler's captures may
  // themselves schedule or cancel events.
  Handler dead = std::move(slots_[slot].fn);
  free_slot(slot);
  // The key stays in the heap until popped. Keys are trivially copyable
  // and small, but when virtual time never reaches them (a tight loop
  // arming and cancelling far-future timeouts, as every blocking RPC does)
  // they would accumulate without bound. Compact once they dominate the
  // heap; the rebuild amortizes to O(1) per cancel. The threshold is
  // deliberately high: compacting eagerly keeps the heap tiny, which lets
  // glibc return the arena's top pages to the kernel between requests when
  // the workload also cycles large short-lived buffers — the resulting
  // per-request page-fault churn costs far more than the stale keys
  // (observed 2.5x on the woven bench_f4 path at a threshold of 64).
  // The ratio test alone is not enough: with a large *live* backlog (a
  // population world keeps one armed far-future timer per client) the heap
  // size drags the threshold up with it, so kMaxTombstones caps the stale
  // keys absolutely; the O(heap) sweep then amortizes to
  // O(heap / kMaxTombstones) per cancel.
  ++stale_;
  if ((stale_ > 1024 && stale_ * 2 > heap_.size()) ||
      stale_ > kMaxTombstones) {
    purge_cancelled();
  }
  return true;
}

void EventLoop::purge_cancelled() {
  std::erase_if(heap_, [this](const Key& key) {
    return slots_[key.slot].id != key.id;
  });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  stale_ = 0;
}

bool EventLoop::run_next(TimePoint deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) {
    const Key key = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    Slot& slot = slots_[key.slot];
    if (slot.id != key.id) {  // cancelled; the slot may have a new occupant
      --stale_;
      continue;
    }
    // Move, don't copy: the handler may own an in-flight message payload.
    // Freeing the slot first makes a cancel() of this event from inside
    // its own handler a no-op.
    Handler fn = std::move(slot.fn);
    live_.erase(key.id);
    free_slot(key.slot);
    now_ = key.when;
    fn();
    return true;
  }
  return false;
}

bool EventLoop::step() {
  for (;;) {
    if (run_next(std::numeric_limits<TimePoint>::max())) return true;
    // The queue is about to drain: give the owner one chance to flush
    // deferred work. The guard keeps a hook that pumps the loop itself
    // (e.g. a blocking dispatch) from re-entering its own flush.
    if (!drain_hook_ || in_drain_hook_) return false;
    in_drain_hook_ = true;
    const bool flushed = drain_hook_();
    in_drain_hook_ = false;
    if (!flushed || heap_.empty()) return false;
  }
}

std::size_t EventLoop::run_until_idle() {
  std::size_t executed = 0;
  while (step()) ++executed;
  return executed;
}

bool EventLoop::run_until(const std::function<bool()>& pred) {
  while (!pred()) {
    if (!step()) return pred();
  }
  return true;
}

void EventLoop::run_for(Duration duration) {
  const TimePoint deadline = now_ + duration;
  while (run_next(deadline)) {
  }
  now_ = deadline;
}

}  // namespace maqs::sim
