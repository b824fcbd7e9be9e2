#include "simtime/simulator.hpp"

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
  // Swap the list out first: unwinding locals may call back into retire().
  std::vector<void*> live;
  live.swap(live_);
  for (auto it = live.rbegin(); it != live.rend(); ++it) {
    std::coroutine_handle<>::from_address(*it).destroy();
  }
  drain_zombies();
  // Events left may resume the frames just destroyed.
  queue_ = {};
}

void Simulator::schedule_at(Time t, std::function<void()> fn) {
  PRS_REQUIRE(t >= now_, "cannot schedule an event in the virtual past");
  queue_.push(Event{t, next_seq_++, std::move(fn)});
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
  live_.push_back(h.address());
  schedule_after(0.0, [h] { h.resume(); });
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // priority_queue::top is const; the event is copied out cheaply enough
  // (shared function state) and popped before running so that re-entrant
  // scheduling sees a consistent queue.
  Event ev = queue_.top();
  queue_.pop();
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
  while (!queue_.empty() && queue_.top().time <= t_end) {
    step();
    maybe_rethrow();
  }
  now_ = std::max(now_, t_end);
  maybe_rethrow();
}

void Simulator::retire(void* coroutine_address) {
  // Finished frames leave the live list (linear scan from the back: the
  // retiring process is usually among the most recently spawned).
  for (auto it = live_.rbegin(); it != live_.rend(); ++it) {
    if (*it == coroutine_address) {
      live_.erase(std::next(it).base());
      break;
    }
  }
  zombies_.push_back(coroutine_address);
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
