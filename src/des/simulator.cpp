#include "wimesh/des/simulator.h"

#include "wimesh/trace/trace.h"

namespace wimesh {

EventHandle Simulator::schedule_at(SimTime t, EventFn fn) {
  WIMESH_ASSERT_MSG(t >= now_, "cannot schedule an event in the past");
  WIMESH_ASSERT(fn != nullptr);
  const std::uint64_t id = next_id_++;
  queue_.push(Entry{t, id});
  handlers_.emplace(id, std::move(fn));
  return EventHandle{id};
}

void Simulator::cancel(EventHandle h) {
  if (!h.valid()) return;
  if (handlers_.erase(h.id) > 0) cancelled_.insert(h.id);
}

void Simulator::execute_next() {
  const Entry e = queue_.top();
  queue_.pop();
  const auto cancelled_it = cancelled_.find(e.id);
  if (cancelled_it != cancelled_.end()) {
    cancelled_.erase(cancelled_it);
    return;
  }
  now_ = e.time;
  auto it = handlers_.find(e.id);
  WIMESH_ASSERT(it != handlers_.end());
  // Move the handler out before invoking: the handler may schedule new
  // events and rehash the map.
  EventFn fn = std::move(it->second);
  handlers_.erase(it);
  ++events_executed_;
  trace::event(trace::EventType::kDesDispatch, now_, -1,
               static_cast<std::int64_t>(e.id));
  fn();
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
