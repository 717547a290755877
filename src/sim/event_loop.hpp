// Discrete-event loop with support for nested pumping.
//
// Blocking RPC on a single-threaded simulator works by "pumping": the caller
// schedules the request and then runs the loop until its reply arrives
// (EventLoop::run_until). Handlers may themselves issue blocking calls,
// which re-enter run_until; events keep draining from the same queue, so a
// server that calls another server mid-request behaves like a nested message
// loop. This mirrors how a CORBA ORB's work queue behaves for collocated
// re-entrant invocations.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/clock.hpp"
#include "util/flat_index.hpp"

namespace maqs::sim {

/// Identifies a scheduled event so it can be cancelled. Ids are handed
/// out in sequence (1, 2, 3, ...), one per schedule call, so the gap
/// between two ids counts the events scheduled in between.
using EventId = std::uint64_t;

class EventLoop {
 public:
  using Handler = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  TimePoint now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` from now (delay < 0 is clamped to 0).
  EventId schedule(Duration delay, Handler fn);

  /// Schedules `fn` at an absolute virtual time (past times run "now").
  EventId schedule_at(TimePoint when, Handler fn);

  /// Cancels a pending event in O(1) and destroys its handler. Returns
  /// false if it already ran, was already cancelled or never existed;
  /// cancelling an event from inside its own handler is such a no-op.
  bool cancel(EventId id);

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const noexcept { return heap_.size() - stale_; }

  /// Heap keys of cancelled events not yet popped or compacted away
  /// (observability; bounded by kMaxTombstones + 1 at all times).
  std::size_t cancelled_backlog() const noexcept { return stale_; }

  /// Hard ceiling on stale keys: cancel() compacts the heap whenever they
  /// grow past this, independent of heap size, so a world with a huge
  /// *live* backlog (a million armed client timers) cannot drag the
  /// ratio-based compaction threshold up with it.
  static constexpr std::size_t kMaxTombstones = 4096;

  /// Runs events until the queue is empty. Returns the number executed.
  std::size_t run_until_idle();

  /// Installs a hook consulted when the queue is about to drain empty
  /// (nullptr uninstalls). The hook returns true when it scheduled new
  /// work, in which case the loop keeps running instead of going idle.
  /// Schedulers that park requests for deferred dispatch use this as a
  /// backstop: no parked work can be stranded by a draining loop.
  void set_drain_hook(std::function<bool()> hook) {
    drain_hook_ = std::move(hook);
  }

  /// Runs events until `pred()` is true or the queue drains.
  /// Returns true if the predicate was satisfied. Re-entrant.
  bool run_until(const std::function<bool()>& pred);

  /// Runs events with timestamps <= now + duration; virtual time ends up
  /// advanced by exactly `duration` even if the queue drains earlier.
  void run_for(Duration duration);

 private:
  // Handlers live in a slot table (slots are recycled through a free
  // list); the heap orders small trivially copyable keys that name their
  // slot. The event id doubles as the FIFO sequence number and as the
  // slot's generation tag: a key whose id no longer matches its slot's
  // occupant belongs to a cancelled event and is skipped when popped.
  struct Key {
    TimePoint when;
    EventId id;  // sequence number: FIFO tie-break for simultaneous events
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };
  struct Slot {
    Handler fn;
    EventId id = 0;  // 0 = free
  };

  /// Pops and runs the earliest event; returns false if the queue is empty.
  bool step();

  /// Pops keys up to the first live one with when <= `deadline`, frees its
  /// slot and runs its handler; returns false when no such event is left.
  bool run_next(TimePoint deadline);

  /// Returns a slot to the free list (its handler already moved out).
  void free_slot(std::uint32_t slot) noexcept;

  /// Drops stale keys and rebuilds the heap.
  void purge_cancelled();

  TimePoint now_ = 0;
  EventId next_id_ = 1;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  util::FlatIndex live_;  // pending event id -> slot, for cancel()
  std::size_t stale_ = 0;  // cancelled keys still in heap_
  std::function<bool()> drain_hook_;
  bool in_drain_hook_ = false;
};

}  // namespace maqs::sim
