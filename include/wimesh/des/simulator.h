#pragma once

// Discrete-event simulation kernel.
//
// A single-threaded event queue with integer-nanosecond timestamps and FIFO
// tie-breaking, so runs are deterministic given the same inputs. All MAC,
// traffic and synchronization models in this repo are processes driven by
// this kernel.
//
// Events live in one binary heap ordered by (time, event id); ids are
// assigned in schedule order, so equal-time events run in the order they
// were scheduled. Each pending event owns one slot of a slab: the slot
// holds the event's id and its handler. Heap entries and EventHandles carry
// the slot index next to the id, and the id stored in the slot is the
// generation check: a slot freed by a fired or cancelled event is reused by
// a later one, and a heap entry or handle whose id no longer matches its
// slot is stale and touches nothing. Cancellation is lazy on the heap — a
// cancelled event's entry stays queued and is discarded when it reaches
// the top — but frees its slot at once, so pending_events() is the count
// of occupied slots.
//
// Handlers are EventFn: a move-only callable that keeps its captures, of
// up to kInlineBytes, inside the slot; a larger capture (or one whose move
// may throw) does not compile. Slots sit in fixed-size chunks that never
// move, so a handler runs in place and may schedule more events while it
// runs; its slot is freed after it returns. A steady-state run therefore
// allocates nothing per event.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "wimesh/common/assert.h"
#include "wimesh/common/time.h"

namespace wimesh {

// Identifies a scheduled event so it can be cancelled. Ids are never
// reused within one Simulator; slots are, and the id tells a live event
// from a stale handle to its slot.
struct EventHandle {
  std::uint64_t id = 0;
  std::uint32_t slot = 0;
  bool valid() const { return id != 0; }
};

namespace detail {
template <class F>
inline constexpr bool kIsStdFunction = false;
template <class R, class... A>
inline constexpr bool kIsStdFunction<std::function<R(A...)>> = true;
}  // namespace detail

// A move-only void() callable with inline storage (see the header comment).
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 88;

  EventFn() noexcept = default;

  template <class F, class D = std::decay_t<F>>
    requires(!std::is_same_v<D, EventFn> && std::is_invocable_r_v<void, D&>)
  EventFn(F&& f) {  // implicit, so lambdas convert at call sites
    emplace(std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept { take(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  // Replaces the held callable with `f`, constructed in place. An empty
  // std::function or a null function pointer leaves this empty.
  template <class F, class D = std::decay_t<F>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<D, EventFn>) {
      *this = std::move(f);
    } else {
      static_assert(kFitsInline<D>,
                    "an EventFn capture must fit kInlineBytes, be at most "
                    "8-byte aligned and move without throwing");
      reset();
      if constexpr (std::is_pointer_v<D> || detail::kIsStdFunction<D>) {
        if (!f) return;
      }
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kOps<D>;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  void operator()() { ops_->invoke(buf_); }

  // Whether EventFn can hold a callable of type F.
  template <class F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::uint64_t) &&
      std::is_nothrow_move_constructible_v<F>;

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs the callable at `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;  // null when trivial
  };

  template <class D>
  static void invoke(void* self) {
    (*static_cast<D*>(self))();
  }
  template <class D>
  static void relocate(void* dst, void* src) noexcept {
    ::new (dst) D(std::move(*static_cast<D*>(src)));
    static_cast<D*>(src)->~D();
  }
  template <class D>
  static void destroy(void* self) noexcept {
    static_cast<D*>(self)->~D();
  }
  template <class D>
  static constexpr Ops kOps{
      &invoke<D>, &relocate<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &destroy<D>};

  void take(EventFn& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  alignas(std::uint64_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules fn at absolute time t (must not be in the past). The handler
  // is built directly in its slot.
  template <class F>
  EventHandle schedule_at(SimTime t, F&& fn) {
    WIMESH_ASSERT_MSG(t >= now_, "cannot schedule an event in the past");
    const std::uint32_t index = claim_slot();
    Slot& s = slot(index);
    s.fn.emplace(std::forward<F>(fn));
    WIMESH_ASSERT(s.fn);
    s.id = next_id_++;
    queue_.push(Entry{t, s.id, index});
    ++live_;
    return EventHandle{s.id, index};
  }

  // Schedules fn `delay` after now. A negative delay is a caller bug and
  // is rejected here by name (not by schedule_at's past-check, whose
  // message would blame the wrong API).
  template <class F>
  EventHandle schedule_in(SimTime delay, F&& fn) {
    WIMESH_ASSERT_MSG(delay >= SimTime::zero(),
                      "schedule_in requires a non-negative delay");
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event; cancelling an already-fired or already-
  // cancelled event is a harmless no-op, even after its slot was reused.
  void cancel(EventHandle h);

  // Runs until the queue drains or `horizon` is reached (events at exactly
  // `horizon` are executed). The clock ends at min(horizon, last event).
  void run_until(SimTime horizon);

  // Runs until the queue drains completely.
  void run_all();

  // Requests that the run loop stop after the current event returns.
  void stop() { stop_requested_ = true; }

  std::uint64_t events_executed() const { return events_executed_; }
  std::size_t pending_events() const { return live_; }

 private:
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  // One queued event, ordered by (time, id): ids are issued in schedule
  // order, so same-time events run FIFO.
  struct Entry {
    SimTime time;
    std::uint64_t id = 0;
    std::uint32_t slot = 0;

    friend bool operator>(const Entry& a, const Entry& b) {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
  };

  // The pending event occupying this slot (id 0: free or running).
  struct Slot {
    std::uint64_t id = 0;
    EventFn fn;
  };

  Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkBits][index & (kChunkSlots - 1)];
  }
  // A free slot's index, growing the slab by one chunk when none is free.
  std::uint32_t claim_slot();
  void execute_next();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_id_ = 1;
  std::uint64_t events_executed_ = 0;
  std::size_t live_ = 0;
  bool stop_requested_ = false;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;  // free slot indices, reused LIFO
};

}  // namespace wimesh
