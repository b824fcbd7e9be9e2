// Coroutine process type for the discrete-event simulator.
//
// A Process is a detached coroutine driven by the Simulator's event loop:
//
//   sim::Process worker(sim::Simulator& sim, Inbox& inbox) {
//     co_await sim::delay(sim, 1e-3);        // sleep 1 ms of virtual time
//     ...
//   }
//   sim.spawn(worker(sim, inbox));
//
// Processes start suspended; Simulator::spawn schedules the first resume as
// a regular event, so creation order and execution order stay decoupled and
// deterministic.
//
// TOOLCHAIN RULE (GCC 12.x, PR-100611-family miscompile): never construct a
// non-trivially-destructible class temporary *as a function argument* inside
// a `co_await` full-expression — GCC 12 relocates such argument temporaries
// into the coroutine frame bitwise, corrupting strings/std::function/
// shared_ptr and double-destroying them. Name the object first:
//
//   // WRONG on GCC 12 — Message temp as argument under co_await:
//   co_await comm.reduce(0, Message{8.0, v}, combiner, tag);
//   // RIGHT — named local (moves of locals are fine):
//   Message m{8.0, v};
//   co_await comm.reduce(0, std::move(m), combiner, tag);
//
// Awaiter/Task/Future objects *returned* by the awaited call are handled
// correctly (they are the await operand, constructed in place in the frame);
// trivially-destructible temporaries (doubles, Workload, spans) are fine.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>

#include "simtime/simulator.hpp"

namespace prs::sim {

/// Detached coroutine owned by the Simulator after spawn().
class Process {
 public:
  struct promise_type {
    Simulator* sim = nullptr;
    std::size_t slot = 0;  // index in the simulator's live list

    Process get_return_object() {
      return Process(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(
          std::coroutine_handle<promise_type> h) const noexcept {
        // Hand the frame to the simulator for deferred destruction; the
        // frame is still executing this very suspend, so it cannot be
        // destroyed inline.
        h.promise().sim->retire(h.address(), h.promise().slot);
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      if (sim != nullptr) {
        sim->record_exception(std::current_exception());
      } else {
        std::terminate();
      }
    }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Process(Process&& other) noexcept : h_(other.h_) { other.h_ = nullptr; }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  Process& operator=(Process&&) = delete;

  ~Process() {
    // Destroys the frame only if it was never spawned.
    if (h_) h_.destroy();
  }

  /// Releases the handle to the simulator (called by Simulator::spawn).
  Handle release() {
    Handle h = h_;
    h_ = nullptr;
    return h;
  }

 private:
  explicit Process(Handle h) : h_(h) {}
  Handle h_;
};

/// Awaitable that suspends the current process for `dt` virtual seconds.
class DelayAwaiter {
 public:
  DelayAwaiter(Simulator& sim, Time dt) : sim_(sim), dt_(dt) {}
  bool await_ready() const noexcept { return dt_ <= 0.0; }
  void await_suspend(std::coroutine_handle<> h) {
    sim_.schedule_after(dt_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  Time dt_;
};

/// co_await delay(sim, dt): sleep for dt virtual seconds.
inline DelayAwaiter delay(Simulator& sim, Time dt) { return {sim, dt}; }

}  // namespace prs::sim
