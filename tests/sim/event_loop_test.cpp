#include "sim/event_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace maqs::sim {
namespace {

TEST(EventLoop, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(30, [&] { order.push_back(3); });
  loop.schedule(10, [&] { order.push_back(1); });
  loop.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SimultaneousEventsRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(10, [&order, i] { order.push_back(i); });
  }
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, NegativeDelayClampsToNow) {
  EventLoop loop;
  loop.schedule(100, [] {});
  loop.run_until_idle();
  bool ran = false;
  loop.schedule(-5, [&] { ran = true; });
  loop.run_until_idle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.now(), 100);
}

TEST(EventLoop, ScheduleAtPastTimeRunsNow) {
  EventLoop loop;
  loop.schedule(50, [] {});
  loop.run_until_idle();
  std::int64_t observed = -1;
  loop.schedule_at(10, [&] { observed = loop.now(); });
  loop.run_until_idle();
  EXPECT_EQ(observed, 50);
}

TEST(EventLoop, HandlersMayScheduleMoreEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> reschedule = [&] {
    if (++count < 5) loop.schedule(10, reschedule);
  };
  loop.schedule(10, reschedule);
  loop.run_until_idle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(loop.cancel(id));
  loop.run_until_idle();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelUnknownReturnsFalse) {
  EventLoop loop;
  EXPECT_FALSE(loop.cancel(0));
  EXPECT_FALSE(loop.cancel(9999));
}

TEST(EventLoop, CancelAfterRunReturnsFalseViaDoubleCancel) {
  EventLoop loop;
  const EventId id = loop.schedule(1, [] {});
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // already marked
}

TEST(EventLoop, PendingCountExcludesCancelled) {
  EventLoop loop;
  const EventId a = loop.schedule(1, [] {});
  loop.schedule(2, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, RunUntilPredicate) {
  EventLoop loop;
  int x = 0;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(10 * (i + 1), [&] { ++x; });
  }
  EXPECT_TRUE(loop.run_until([&] { return x == 4; }));
  EXPECT_EQ(x, 4);
  EXPECT_EQ(loop.now(), 40);
  EXPECT_EQ(loop.pending(), 6u);
}

TEST(EventLoop, RunUntilReturnsFalseWhenQueueDrains) {
  EventLoop loop;
  loop.schedule(10, [] {});
  EXPECT_FALSE(loop.run_until([] { return false; }));
}

TEST(EventLoop, RunUntilAlreadySatisfiedDoesNothing) {
  EventLoop loop;
  bool ran = false;
  loop.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(loop.run_until([] { return true; }));
  EXPECT_FALSE(ran);
}

// The nested-pumping pattern that blocking RPC relies on: a handler itself
// waits for a later event.
TEST(EventLoop, NestedRunUntil) {
  EventLoop loop;
  std::vector<int> order;
  bool inner_done = false;
  loop.schedule(10, [&] {
    order.push_back(1);
    loop.schedule(5, [&] {
      order.push_back(2);
      inner_done = true;
    });
    EXPECT_TRUE(loop.run_until([&] { return inner_done; }));
    order.push_back(3);
  });
  loop.schedule(100, [&] { order.push_back(4); });
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventLoop, RunForAdvancesExactDuration) {
  EventLoop loop;
  int count = 0;
  loop.schedule(10, [&] { ++count; });
  loop.schedule(20, [&] { ++count; });
  loop.schedule(30, [&] { ++count; });
  loop.run_for(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), 20);
  loop.run_for(5);  // nothing in window, clock still advances
  EXPECT_EQ(loop.now(), 25);
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, RunForSkipsCancelledHeadWithoutOverrunning) {
  EventLoop loop;
  bool late_ran = false;
  const EventId head = loop.schedule(5, [] {});
  loop.schedule(50, [&] { late_ran = true; });
  loop.cancel(head);
  loop.run_for(10);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoop, EventAtExactDeadlineRuns) {
  EventLoop loop;
  bool ran = false;
  loop.schedule(10, [&] { ran = true; });
  loop.run_for(10);
  EXPECT_TRUE(ran);
}

TEST(EventLoop, TombstoneBacklogStaysBoundedOverAMillionCancelCycles) {
  // Regression: with only the ratio-based purge, a large persistent live
  // backlog (here 100k armed far-future timers, standing in for one timer
  // per client in a population world) drags the purge threshold up with
  // the queue size, and a long-horizon schedule-and-cancel loop grows the
  // stale keys to half the population. The absolute cap must keep them
  // bounded regardless of how big the live queue is.
  EventLoop loop;
  int fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    loop.schedule(1'000'000'000 + i, [&] { ++fired; });
  }
  std::size_t max_backlog = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    // The blocking-RPC shape: arm a far-future timeout, then cancel it
    // when the (instant) reply lands. Virtual time never reaches the
    // entry, so only compaction can reclaim it.
    const EventId timeout = loop.schedule(2'000'000'000, [] {});
    ASSERT_TRUE(loop.cancel(timeout));
    max_backlog = std::max(max_backlog, loop.cancelled_backlog());
  }
  EXPECT_LE(max_backlog, EventLoop::kMaxTombstones + 1);
  EXPECT_EQ(loop.pending(), 100'000u);
  EXPECT_EQ(fired, 0);
}

TEST(EventLoop, StaleCancelsCannotUnderflowPending) {
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(loop.schedule(i, [] {}));
  }
  loop.run_until_idle();
  // Cancelling after execution is documented as a late no-op; the stale
  // tombstones it leaves must not wrap pending() below zero.
  for (EventId id : ids) loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, CancelAfterRunReturnsFalseAndLeavesNoBacklog) {
  EventLoop loop;
  const EventId id = loop.schedule(1, [] {});
  loop.run_until_idle();
  EXPECT_FALSE(loop.cancel(id));
  EXPECT_EQ(loop.cancelled_backlog(), 0u);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, CancelFromOwnHandlerReturnsFalse) {
  EventLoop loop;
  EventId self = 0;
  bool cancelled = true;
  self = loop.schedule(1, [&] { cancelled = loop.cancel(self); });
  loop.run_until_idle();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(loop.cancelled_backlog(), 0u);
}

TEST(EventLoop, SimultaneousEventsRunFifoAcrossSlotReuse) {
  // Cancelled events hand their handler slots back in LIFO order; events
  // scheduled into recycled slots must still run in scheduling order.
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 4; ++i) doomed.push_back(loop.schedule(10, [] {}));
  loop.schedule(10, [&] { order.push_back(0); });
  for (const EventId id : doomed) ASSERT_TRUE(loop.cancel(id));
  for (int i = 1; i < 6; ++i) {
    loop.schedule(10, [&order, i] { order.push_back(i); });
  }
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.cancelled_backlog(), 0u);
}

TEST(EventLoop, StaleKeyOfRecycledSlotIsSkipped) {
  // The cancelled event's key is still queued (earlier) when its slot is
  // reused; popping it must neither run the new occupant early nor
  // advance virtual time to the cancelled timestamp.
  EventLoop loop;
  std::vector<TimePoint> ran_at;
  const EventId early = loop.schedule(5, [] {});
  ASSERT_TRUE(loop.cancel(early));
  loop.schedule(20, [&] { ran_at.push_back(loop.now()); });
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_until_idle();
  EXPECT_EQ(ran_at, (std::vector<TimePoint>{20}));
  EXPECT_EQ(loop.cancelled_backlog(), 0u);
}

}  // namespace
}  // namespace maqs::sim
