#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "wimesh/des/simulator.h"

// Global allocation counter for the steady-state test below. Replacing the
// global operator new here affects this test binary only.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes != 0 ? bytes : 1)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a
// new-expression at a call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace wimesh {
namespace {

// Deterministic xorshift64 stream for the randomized kernel workloads.
struct XorShift {
  std::uint64_t x;
  std::uint64_t operator()() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::milliseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::milliseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::milliseconds(20), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::milliseconds(30));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::milliseconds(5), [&, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  sim.schedule_at(SimTime::milliseconds(10), [&] {
    sim.schedule_in(SimTime::milliseconds(5), [&] { fired = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired, SimTime::milliseconds(15));
}

TEST(SimulatorTest, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::milliseconds(10), [&] { ++count; });
  sim.schedule_at(SimTime::milliseconds(20), [&] { ++count; });
  sim.schedule_at(SimTime::milliseconds(30), [&] { ++count; });
  sim.run_until(SimTime::milliseconds(20));
  EXPECT_EQ(count, 2);  // events at exactly the horizon run
  EXPECT_EQ(sim.now(), SimTime::milliseconds(20));
  sim.run_until(SimTime::milliseconds(100));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), SimTime::milliseconds(100));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventHandle h =
      sim.schedule_at(SimTime::milliseconds(10), [&] { fired = true; });
  sim.cancel(h);
  sim.run_all();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, CancelAfterFireIsNoOp) {
  Simulator sim;
  const EventHandle h = sim.schedule_at(SimTime::milliseconds(1), [] {});
  sim.run_all();
  sim.cancel(h);  // must not crash or affect anything
  sim.cancel(h);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 100) sim.schedule_in(SimTime::microseconds(1), step);
  };
  sim.schedule_at(SimTime::zero(), step);
  sim.run_all();
  EXPECT_EQ(chain, 100);
  EXPECT_EQ(sim.now(), SimTime::microseconds(99));
}

TEST(SimulatorTest, StopHaltsTheLoop) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::milliseconds(1), [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_at(SimTime::milliseconds(2), [&] { ++count; });
  sim.run_all();
  EXPECT_EQ(count, 1);
  sim.run_all();  // resumes with remaining events
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator sim;
  const EventHandle a = sim.schedule_at(SimTime::milliseconds(1), [] {});
  sim.schedule_at(SimTime::milliseconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, CancelFromWithinEarlierEvent) {
  Simulator sim;
  bool fired = false;
  const EventHandle later =
      sim.schedule_at(SimTime::milliseconds(10), [&] { fired = true; });
  sim.schedule_at(SimTime::milliseconds(5), [&] { sim.cancel(later); });
  sim.run_all();
  EXPECT_FALSE(fired);
}

// schedule_in must reject a negative delay by name — not fall through to
// schedule_at's past-check, whose message would blame the wrong API.
TEST(SimulatorDeathTest, NegativeDelayAsserts) {
  Simulator sim;
  EXPECT_DEATH(sim.schedule_in(SimTime::nanoseconds(-1), [] {}),
               "non-negative delay");
}

TEST(SimulatorTest, NegativeDelayFromWithinEventAsserts) {
  Simulator sim;
  sim.schedule_at(SimTime::milliseconds(5), [&] {
    // now() is 5ms here, so the absolute time would be valid — the delay
    // itself is still a caller bug and must die.
    EXPECT_DEATH(sim.schedule_in(SimTime::milliseconds(-1), [] {}),
                 "non-negative delay");
  });
  sim.run_all();
}

// Events pushed out of time order before the first pop (no now-barrier
// constrains them) must still execute in time order.
TEST(SimulatorTest, OutOfOrderPushesBeforeFirstPopRunInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::seconds(1), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::nanoseconds(5), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::milliseconds(1), [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), SimTime::seconds(1));
}

// Heavy cancel traffic: pending_events must track exactly
// (queued - cancelled), double-cancels must be no-ops, and only surviving
// events may fire.
TEST(SimulatorTest, CancelAccountingStress) {
  Simulator sim;
  XorShift next{0x9e3779b97f4a7c15ull};
  std::vector<EventHandle> handles;
  std::size_t fired = 0;
  constexpr std::size_t kEvents = 3000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    handles.push_back(sim.schedule_at(
        SimTime::nanoseconds(static_cast<std::int64_t>(next() % 1'000'000)),
        [&] { ++fired; }));
  }
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); i += 3) {
    sim.cancel(handles[i]);
    ++cancelled;
  }
  for (std::size_t i = 0; i < handles.size(); i += 9) {
    sim.cancel(handles[i]);  // repeat cancels must not double-count
  }
  sim.cancel(EventHandle{});  // invalid handle is a no-op
  EXPECT_EQ(sim.pending_events(), kEvents - cancelled);
  sim.run_all();
  EXPECT_EQ(fired, kEvents - cancelled);
  EXPECT_EQ(sim.events_executed(), kEvents - cancelled);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Random workload of scattered times, a 64-event equal-time burst, nested
// scheduling and cancels made from inside events, checked against an
// expectation kept outside the kernel: executed times never decrease,
// equal-time events run in ascending tag (= schedule) order, no cancelled
// event fires, and events_executed() equals the events scheduled minus the
// cancels that hit a still-pending event.
TEST(SimulatorTest, RandomWorkloadRunsInTimeThenScheduleOrder) {
  Simulator sim;
  XorShift next{0x243f6a8885a308d3ull};
  enum class State { kPending, kFired, kCancelled };
  std::vector<State> state;          // indexed by tag
  std::vector<EventHandle> handles;  // indexed by tag
  std::size_t effective_cancels = 0;
  std::int64_t last_ns = -1;
  std::size_t last_tag = 0;
  std::function<void(SimTime, int)> spawn = [&](SimTime t, int depth) {
    const std::size_t tag = state.size();
    state.push_back(State::kPending);
    handles.push_back(sim.schedule_at(t, [&, tag, depth] {
      EXPECT_EQ(state[tag], State::kPending);
      state[tag] = State::kFired;
      const std::int64_t now_ns = sim.now().ns();
      EXPECT_GE(now_ns, last_ns);
      if (now_ns == last_ns) {
        EXPECT_GT(tag, last_tag);
      }
      last_ns = now_ns;
      last_tag = tag;
      if (depth < 2) {
        const int children = static_cast<int>(next() % 3);
        for (int c = 0; c < children; ++c) {
          spawn(sim.now() + SimTime::nanoseconds(
                                static_cast<std::int64_t>(next() % 50'000)),
                depth + 1);
        }
      }
      if (next() % 4 == 0) {
        const std::size_t victim = next() % handles.size();
        if (state[victim] == State::kPending) {
          state[victim] = State::kCancelled;
          ++effective_cancels;
        }
        sim.cancel(handles[victim]);
      }
    }));
  };
  for (int i = 0; i < 400; ++i) {
    spawn(SimTime::nanoseconds(static_cast<std::int64_t>(next() % 2'000'000)),
          0);
  }
  // Equal-time burst: FIFO tie-breaking must follow schedule order.
  for (int i = 0; i < 64; ++i) spawn(SimTime::microseconds(700), 0);
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), state.size() - effective_cancels);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.now().ns(), last_ns);
  EXPECT_GT(state.size(), 464u);  // the workload actually fanned out
  EXPECT_GT(effective_cancels, 0u);
}

// run_until interleaved with fresh pushes across horizons: the queue
// drains and refills repeatedly, and time order must hold throughout.
TEST(SimulatorTest, SurvivesDrainRefillCycles) {
  Simulator sim;
  std::size_t fired = 0;
  std::int64_t last_ns = -1;
  for (int round = 0; round < 20; ++round) {
    const std::int64_t base = round * 1'000'000;
    for (int i = 19; i >= 0; --i) {  // descending pushes inside each round
      sim.schedule_at(SimTime::nanoseconds(base + i * 1000), [&] {
        EXPECT_GE(sim.now().ns(), last_ns);
        last_ns = sim.now().ns();
        ++fired;
      });
    }
    sim.run_until(SimTime::nanoseconds(base + 500'000));
  }
  sim.run_all();
  EXPECT_EQ(fired, 400u);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(SimTime::microseconds((i * 7919) % 100), [&trace, &sim] {
        trace.push_back(sim.now().ns());
      });
    }
    sim.run_all();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// A slot freed by a fired or a cancelled event goes to the next event
// scheduled. The old handle still names that slot, but its id no longer
// matches: cancelling it leaves the new occupant intact, and the cancelled
// event's heap entry, still queued, does not run the new occupant early.
TEST(SimulatorSlabTest, StaleHandleLeavesSlotsNewOccupantIntact) {
  Simulator sim;
  const EventHandle fired = sim.schedule_at(SimTime::milliseconds(1), [] {});
  sim.run_all();
  SimTime ran_at = SimTime::zero();
  const EventHandle after_fire = sim.schedule_at(
      SimTime::milliseconds(2), [&] { ran_at = sim.now(); });
  EXPECT_EQ(after_fire.slot, fired.slot);
  EXPECT_NE(after_fire.id, fired.id);
  sim.cancel(fired);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_EQ(ran_at, SimTime::milliseconds(2));

  bool cancelled_ran = false;
  const EventHandle cancelled = sim.schedule_at(
      SimTime::milliseconds(3), [&] { cancelled_ran = true; });
  sim.cancel(cancelled);
  ran_at = SimTime::zero();
  const EventHandle after_cancel = sim.schedule_at(
      SimTime::milliseconds(4), [&] { ran_at = sim.now(); });
  EXPECT_EQ(after_cancel.slot, cancelled.slot);
  sim.cancel(cancelled);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_EQ(ran_at, SimTime::milliseconds(4));  // not at the stale 3 ms entry
  EXPECT_EQ(sim.events_executed(), 3u);
}

// An event cancelling its own handle while it runs is a no-op: the slot is
// not freed twice, and what the handler schedules lands in other slots.
TEST(SimulatorSlabTest, SelfCancelWhileRunningIsANoOp) {
  Simulator sim;
  EventHandle self;
  int children = 0;
  self = sim.schedule_at(SimTime::milliseconds(1), [&] {
    sim.cancel(self);
    const EventHandle a = sim.schedule_in(SimTime::zero(), [&] { ++children; });
    const EventHandle b = sim.schedule_in(SimTime::zero(), [&] { ++children; });
    EXPECT_NE(a.slot, self.slot);
    EXPECT_NE(b.slot, self.slot);
    EXPECT_NE(a.slot, b.slot);
    EXPECT_EQ(sim.pending_events(), 2u);
  });
  sim.run_all();
  EXPECT_EQ(children, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// pending_events() against a count kept outside the kernel, over cycles of
// scheduling, cancelling (live, fired and repeat handles) and partial runs
// that keep recycling slots.
TEST(SimulatorSlabTest, PendingEventsStaysExactAcrossCancelAndReuse) {
  Simulator sim;
  XorShift next{0x5851f42d4c957f2dull};
  std::vector<EventHandle> handles;
  std::vector<char> live;  // by handle index
  std::size_t expected = 0;
  std::size_t fired = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    const int adds = static_cast<int>(next() % 20);
    for (int i = 0; i < adds; ++i) {
      const std::size_t tag = handles.size();
      live.push_back(1);
      handles.push_back(sim.schedule_in(
          SimTime::nanoseconds(static_cast<std::int64_t>(next() % 5000)),
          [&, tag] {
            ASSERT_TRUE(live[tag]);
            live[tag] = 0;
            --expected;
            ++fired;
          }));
      ++expected;
    }
    const int cancels = static_cast<int>(next() % 12);
    for (int i = 0; i < cancels && !handles.empty(); ++i) {
      const std::size_t victim = next() % handles.size();
      if (live[victim]) {
        live[victim] = 0;
        --expected;
      }
      sim.cancel(handles[victim]);  // live, fired or already cancelled
      ASSERT_EQ(sim.pending_events(), expected) << "cycle " << cycle;
    }
    sim.run_until(sim.now() + SimTime::nanoseconds(
                                  static_cast<std::int64_t>(next() % 3000)));
    ASSERT_EQ(sim.pending_events(), expected) << "cycle " << cycle;
  }
  sim.run_all();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), fired);
  EXPECT_GT(fired, 500u);
}

// Captures are released when their event fires or is cancelled, not when
// the slot is next reused.
TEST(SimulatorSlabTest, CapturesAreDestroyedAtFireAndCancel) {
  Simulator sim;
  const auto token = std::make_shared<int>(0);
  const EventHandle h =
      sim.schedule_at(SimTime::milliseconds(1), [token] { ++*token; });
  sim.schedule_at(SimTime::milliseconds(2), [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 3);
  sim.cancel(h);
  EXPECT_EQ(token.use_count(), 2);
  sim.run_all();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 1);
}

// Once the slab and the heap have grown to a workload's size, scheduling
// and running events allocates nothing: EventFn keeps every capture in
// its inline storage.
TEST(SimulatorSlabTest, SteadyStateSchedulingAllocatesNothing) {
  Simulator sim;
  std::uint64_t sum = 0;
  // About the size of the largest capture the models schedule.
  struct Payload {
    std::array<std::uint64_t, 9> words{};
  };
  const auto inline_fn = [&sum](Payload p) {
    return [&sum, p] { sum += p.words[0]; };
  };
  static_assert(EventFn::kFitsInline<decltype(inline_fn(Payload{}))>);
  std::vector<EventHandle> handles;
  handles.reserve(64);
  const auto round = [&] {
    handles.clear();
    for (std::uint64_t i = 0; i < 64; ++i) {
      Payload p;
      p.words[0] = i;
      handles.push_back(sim.schedule_in(
          SimTime::nanoseconds(static_cast<std::int64_t>(i % 7)),
          inline_fn(p)));
    }
    for (std::size_t i = 0; i < handles.size(); i += 5) sim.cancel(handles[i]);
    sim.schedule_in(SimTime::nanoseconds(3), [&] {
      sim.schedule_in(SimTime::nanoseconds(1), inline_fn(Payload{}));
    });
    sim.run_all();
  };
  round();  // grows the slab, the heap and the free list
  const std::uint64_t before = g_allocations.load();
  for (int r = 0; r < 100; ++r) round();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_GT(sum, 0u);
}

// EventFn moves small and full-size captures, and a moved EventFn can be
// scheduled: each capture lives in exactly one place and is destroyed once.
TEST(SimulatorSlabTest, EventFnMovesInlineCallables) {
  const auto token = std::make_shared<int>(0);
  const std::array<std::uint64_t, 9> big{};
  static_assert(sizeof(token) + sizeof(big) == EventFn::kInlineBytes);
  EventFn small([token] { ++*token; });
  EventFn large([token, big] { *token += 1 + static_cast<int>(big[0]); });
  EXPECT_EQ(token.use_count(), 3);
  EventFn moved(std::move(small));
  EventFn assigned;
  assigned = std::move(large);
  EXPECT_FALSE(small);
  EXPECT_FALSE(large);
  EXPECT_EQ(token.use_count(), 3);
  Simulator sim;
  sim.schedule_at(SimTime::milliseconds(1), std::move(moved));
  sim.schedule_at(SimTime::milliseconds(2), std::move(assigned));
  sim.run_all();
  EXPECT_EQ(*token, 2);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace wimesh
