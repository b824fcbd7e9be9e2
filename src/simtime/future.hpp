// Future/Promise pair for passing values between simulator processes.
//
// A Future resolves at a virtual-time instant; awaiting processes are
// resumed through the event queue (at the same timestamp, FIFO), so
// completion order is deterministic.
#pragma once

#include <coroutine>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "simtime/simulator.hpp"

namespace prs::sim {

/// Empty payload for Future<Unit> (a "void" future).
struct Unit {};

template <typename T>
class Promise;

/// Shared-state, single-assignment future. Copyable; all copies observe the
/// same resolution. Await it (`co_await fut`) or poll `ready()/value()`.
template <typename T>
class Future {
 public:
  Future() = default;

  bool valid() const { return state_ != nullptr; }
  bool ready() const { return state_ && state_->value.has_value(); }

  const T& value() const {
    PRS_REQUIRE(ready(), "Future::value called before resolution");
    return *state_->value;
  }

  /// Registers a callback invoked (via the event queue) when the future
  /// resolves; invoked immediately-as-an-event if already resolved.
  void on_ready(std::function<void(const T&)> fn) const {
    PRS_REQUIRE(valid(), "on_ready on an invalid future");
    if (state_->value.has_value()) {
      auto st = state_;
      state_->sim->schedule_after(0.0,
                                  [st, f = std::move(fn)] { f(*st->value); });
    } else {
      state_->callbacks.push_back(std::move(fn));
    }
  }

  struct Awaiter {
    std::shared_ptr<typename Promise<T>::State> state;
    bool await_ready() const { return state->value.has_value(); }
    void await_suspend(std::coroutine_handle<> h) {
      state->waiters.push_back(h);
    }
    const T& await_resume() const { return *state->value; }
  };
  Awaiter operator co_await() const {
    PRS_REQUIRE(valid(), "co_await on an invalid future");
    return Awaiter{state_};
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<typename Promise<T>::State> s)
      : state_(std::move(s)) {}
  std::shared_ptr<typename Promise<T>::State> state_;
};

/// Producer side. Single assignment; set_value resumes all waiters as
/// events at the current virtual time.
template <typename T>
class Promise {
 public:
  struct State {
    explicit State(Simulator& s) : sim(&s) {}
    Simulator* sim;
    std::optional<T> value;
    std::vector<std::coroutine_handle<>> waiters;
    std::vector<std::function<void(const T&)>> callbacks;
  };

  explicit Promise(Simulator& sim) : state_(std::make_shared<State>(sim)) {}

  Future<T> get_future() const { return Future<T>(state_); }

  bool resolved() const { return state_->value.has_value(); }

  void set_value(T v) {
    PRS_REQUIRE(!state_->value.has_value(), "promise resolved twice");
    state_->value = std::move(v);
    auto st = state_;
    for (auto h : st->waiters) {
      st->sim->schedule_after(0.0, [h] { h.resume(); });
    }
    st->waiters.clear();
    for (auto& cb : st->callbacks) {
      st->sim->schedule_after(0.0,
                              [st, f = std::move(cb)] { f(*st->value); });
    }
    st->callbacks.clear();
  }

 private:
  std::shared_ptr<State> state_;
};

/// Resolves to true when `f` resolves within `dt` virtual seconds from now,
/// or false when the deadline passes first. The race is decided through the
/// event queue, so it is deterministic; a resolution arriving after the
/// deadline is ignored here (the underlying future stays valid and can be
/// awaited again, e.g. by a retry with a longer deadline).
template <typename T>
Future<bool> with_timeout(Simulator& sim, const Future<T>& f, Time dt) {
  PRS_REQUIRE(f.valid(), "with_timeout on an invalid future");
  PRS_REQUIRE(dt >= 0.0, "with_timeout deadline must be non-negative");
  auto done = std::make_shared<Promise<bool>>(sim);
  auto decided = std::make_shared<bool>(false);
  f.on_ready([done, decided](const T&) {
    if (*decided) return;
    *decided = true;
    done->set_value(true);
  });
  sim.schedule_after(dt, [done, decided] {
    if (*decided) return;
    *decided = true;
    done->set_value(false);
  });
  return done->get_future();
}

/// An already-resolved Future<Unit> (awaiting it does not suspend).
inline Future<Unit> make_ready_future(Simulator& sim) {
  Promise<Unit> p(sim);
  p.set_value(Unit{});
  return p.get_future();
}

/// Future that resolves when all inputs have resolved; carries the count.
template <typename T>
Future<Unit> when_all(Simulator& sim, const std::vector<Future<T>>& futures) {
  if (futures.empty()) return make_ready_future(sim);
  auto done = std::make_shared<Promise<Unit>>(sim);
  auto remaining = std::make_shared<std::size_t>(futures.size());
  for (const auto& f : futures) {
    f.on_ready([done, remaining](const T&) {
      if (--*remaining == 0) done->set_value(Unit{});
    });
  }
  return done->get_future();
}

}  // namespace prs::sim
