#pragma once

// Discrete-event simulation kernel.
//
// A single-threaded event queue with integer-nanosecond timestamps and FIFO
// tie-breaking, so runs are deterministic given the same inputs. All MAC,
// traffic and synchronization models in this repo are processes driven by
// this kernel.
//
// Events live in one binary heap (std::priority_queue) ordered by
// (time, event id); ids are assigned in schedule order, so equal-time events
// run in the order they were scheduled. Cancellation is lazy: a cancelled
// event stays queued and is discarded when it reaches the top, so
// pending_events() subtracts the cancelled-but-queued count.

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "wimesh/common/assert.h"
#include "wimesh/common/time.h"

namespace wimesh {

// Identifies a scheduled event so it can be cancelled. Handles are never
// reused within one Simulator.
struct EventHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

class Simulator {
 public:
  using EventFn = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules fn at absolute time t (must not be in the past).
  EventHandle schedule_at(SimTime t, EventFn fn);

  // Schedules fn `delay` after now. A negative delay is a caller bug and
  // is rejected here by name (not by schedule_at's past-check, whose
  // message would blame the wrong API).
  EventHandle schedule_in(SimTime delay, EventFn fn) {
    WIMESH_ASSERT_MSG(delay >= SimTime::zero(),
                      "schedule_in requires a non-negative delay");
    return schedule_at(now_ + delay, std::move(fn));
  }

  // Cancels a pending event; cancelling an already-fired or already-
  // cancelled event is a harmless no-op.
  void cancel(EventHandle h);

  // Runs until the queue drains or `horizon` is reached (events at exactly
  // `horizon` are executed). The clock ends at min(horizon, last event).
  void run_until(SimTime horizon);

  // Runs until the queue drains completely.
  void run_all();

  // Requests that the run loop stop after the current event returns.
  void stop() { stop_requested_ = true; }

  std::uint64_t events_executed() const { return events_executed_; }
  std::size_t pending_events() const {
    return queue_.size() - cancelled_.size();
  }

 private:
  // One queued event, ordered by (time, id): ids are issued in schedule
  // order, so same-time events run FIFO.
  struct Entry {
    SimTime time;
    std::uint64_t id = 0;

    friend bool operator>(const Entry& a, const Entry& b) {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
  };

  void execute_next();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_id_ = 1;
  std::uint64_t events_executed_ = 0;
  bool stop_requested_ = false;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::unordered_map<std::uint64_t, EventFn> handlers_;
  std::unordered_set<std::uint64_t> cancelled_;
};

}  // namespace wimesh
