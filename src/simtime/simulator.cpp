#include "simtime/simulator.hpp"

#include <algorithm>
#include <coroutine>

#include "simtime/process.hpp"

namespace prs::sim {

void Simulator::shutdown() {
  shut_down_ = true;
  // Payloads of tasks that will never complete are dropped unrun; their
  // captures go when the suspended device workers holding the tickets are
  // destroyed below, as if the payloads had never been queued.
  payloads_.clear();
  // Pending events may hold coroutine handles whose frames were retired or
  // will never run; frames retired but not yet drained must still be freed.
  drain_zombies();
  // Processes still suspended at teardown — typically eternal device/daemon
  // loops blocked on a channel that will never deliver — are destroyed in
  // reverse spawn order (locals' destructors run; nothing is resumed).
  // Each slot is cleared before its frame goes: unwinding locals may call
  // back into retire() for a frame further down, which then drains as a
  // zombie instead (retire() does not compact after shutdown).
  for (std::size_t i = live_.size(); i-- > 0;) {
    void* addr = live_[i];
    if (addr == nullptr) continue;
    live_[i] = nullptr;
    --live_count_;
    std::coroutine_handle<>::from_address(addr).destroy();
  }
  live_.clear();
  drain_zombies();
  // Events left may resume the frames just destroyed.
  events_.clear();
}

void Simulator::schedule_at(Time t, std::function<void()> fn) {
  PRS_REQUIRE(t >= now_, "cannot schedule an event in the virtual past");
  events_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(events_.begin(), events_.end(), EventOrder{});
}

void Simulator::schedule_after(Time dt, std::function<void()> fn) {
  PRS_REQUIRE(dt >= 0.0, "delay must be non-negative");
  schedule_at(now_ + dt, std::move(fn));
}

void Simulator::spawn(Process process) {
  PRS_CHECK(!shut_down_, "spawn on a simulator that was shut down");
  Process::Handle h = process.release();
  PRS_CHECK(h, "spawn of an empty process");
  h.promise().sim = this;
  h.promise().slot = live_.size();
  live_.push_back(h.address());
  ++live_count_;
  schedule_after(0.0, [h] { h.resume(); });
}

bool Simulator::step() {
  if (events_.empty()) return false;
  // Move the earliest event out (its callable is never copied) and pop it
  // before running, so that re-entrant scheduling sees a consistent heap.
  // (time, seq) is a total order: the heap layout cannot change which
  // event runs next.
  std::pop_heap(events_.begin(), events_.end(), EventOrder{});
  Event ev = std::move(events_.back());
  events_.pop_back();
  PRS_CHECK(ev.time >= now_, "event queue time went backwards");
  now_ = ev.time;
  ++dispatched_;
  ev.fn();
  drain_zombies();
  return true;
}

void Simulator::run() {
  while (step()) maybe_rethrow();
  maybe_rethrow();
}

void Simulator::run_until(Time t_end) {
  PRS_REQUIRE(t_end >= now_, "run_until target is in the past");
  while (!events_.empty() && events_.front().time <= t_end) {
    step();
    maybe_rethrow();
  }
  now_ = std::max(now_, t_end);
  maybe_rethrow();
}

void Simulator::retire(void* coroutine_address, std::size_t slot) {
  // O(1): the frame's promise knows its slot; leave a tombstone there.
  if (slot < live_.size() && live_[slot] == coroutine_address) {
    live_[slot] = nullptr;
    --live_count_;
    if (!shut_down_ && 2 * live_count_ <= live_.size()) compact_live();
  }
  zombies_.push_back(coroutine_address);
}

void Simulator::compact_live() {
  // Squeeze out the tombstones in order (spawn order is teardown order)
  // and tell each surviving frame its new slot. Runs once half the slots
  // are dead, so each retire pays O(1) amortised.
  std::size_t next = 0;
  for (void* addr : live_) {
    if (addr == nullptr) continue;
    Process::Handle::from_address(addr).promise().slot = next;
    live_[next++] = addr;
  }
  live_.resize(next);
}

void Simulator::record_exception(std::exception_ptr e) {
  // Keep only the first exception; later ones are usually cascades.
  if (!pending_exception_) pending_exception_ = std::move(e);
}

void Simulator::drain_zombies() {
  for (void* addr : zombies_) {
    std::coroutine_handle<>::from_address(addr).destroy();
  }
  zombies_.clear();
}

void Simulator::maybe_rethrow() {
  if (pending_exception_) {
    std::exception_ptr e = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace prs::sim
