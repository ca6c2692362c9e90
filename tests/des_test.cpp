#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "wimesh/des/simulator.h"

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

}  // namespace
}  // namespace wimesh
