#include "wimesh/des/simulator.h"

#include "wimesh/trace/trace.h"

namespace wimesh {

std::uint32_t Simulator::claim_slot() {
  if (free_.empty()) {
    const auto base = static_cast<std::uint32_t>(chunks_.size()) << kChunkBits;
    WIMESH_ASSERT_MSG(base <= UINT32_MAX - kChunkSlots,
                      "event slab exceeds 2^32 slots");
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    // Reversed, so the LIFO free list hands out the chunk in index order.
    for (std::uint32_t i = kChunkSlots; i-- > 0;) free_.push_back(base + i);
  }
  const std::uint32_t index = free_.back();
  free_.pop_back();
  return index;
}

void Simulator::cancel(EventHandle h) {
  if (!h.valid()) return;
  WIMESH_ASSERT(h.slot < chunks_.size() * kChunkSlots);
  Slot& s = slot(h.slot);
  if (s.id != h.id) return;  // fired, cancelled or running; maybe reused
  s.id = 0;
  s.fn.reset();
  free_.push_back(h.slot);
  --live_;
}

void Simulator::execute_next() {
  const Entry e = queue_.top();
  queue_.pop();
  Slot& s = slot(e.slot);
  if (s.id != e.id) return;  // cancelled
  now_ = e.time;
  // Unclaimed while running, so a cancel of this event's handle from inside
  // its own handler is a no-op, and the slot is not reused before the
  // handler returns.
  s.id = 0;
  --live_;
  ++events_executed_;
  trace::event(trace::EventType::kDesDispatch, now_, -1,
               static_cast<std::int64_t>(e.id));
  s.fn();
  s.fn.reset();
  free_.push_back(e.slot);
}

void Simulator::run_until(SimTime horizon) {
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_) {
    if (queue_.top().time > horizon) break;
    execute_next();
  }
  if (now_ < horizon && !stop_requested_) now_ = horizon;
}

void Simulator::run_all() {
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_) execute_next();
}

}  // namespace wimesh
