// Deterministic discrete-event simulation engine.
//
// The whole reproduction executes on a virtual clock: device kernels, PCI-E
// transfers, network messages and scheduler decisions all charge virtual
// time here instead of wall-clock time. Events with equal timestamps are
// dispatched in scheduling order (FIFO via sequence numbers), so a given
// program produces bit-identical traces on every run and every machine.
//
// Concurrency model: single-threaded. "Processes" are C++20 coroutines
// (see process.hpp) resumed by the event loop; there is no data race by
// construction, which mirrors how the paper's runtime is *reasoned about*
// while keeping the reproduction hardware-independent. The one exception
// is the functional payloads of device tasks: they may run on the host
// pool between their task's start and completion (payload_queue.hpp), and
// touch no simulator state while they do.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.hpp"
#include "simtime/payload_queue.hpp"

namespace prs::obs {
class TraceRecorder;  // defined in obs/trace.hpp (layered above simtime)
}

namespace prs::sim {

/// Virtual time in seconds.
using Time = double;

class Process;  // defined in process.hpp

/// The event loop. Owns the virtual clock and all pending events.
class Simulator {
 public:
  Simulator() = default;
  ~Simulator() { shutdown(); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Tears the simulation down: drops queued payloads and pending events
  /// and destroys every process frame still suspended, in reverse spawn
  /// order (their locals' destructors run; nothing is resumed). Owners of
  /// state those frames reference call it before that state dies — a
  /// Cluster its nodes, an attached TraceRecorder itself — so the order in
  /// which they and the simulator are declared does not matter.
  /// Idempotent; nothing may be spawned afterwards.
  void shutdown();

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `t` (>= now).
  void schedule_at(Time t, std::function<void()> fn);

  /// Schedules `fn` to run `dt` seconds from now (dt >= 0).
  void schedule_after(Time dt, std::function<void()> fn);

  /// Starts a coroutine process; its first resume happens as an event at
  /// the current time. The simulator takes ownership of the coroutine frame.
  void spawn(Process process);

  /// Runs until the event queue drains. Rethrows the first exception that
  /// escaped a process or callback.
  void run();

  /// Runs until the clock would pass `t_end`; events at exactly `t_end`
  /// are processed.
  void run_until(Time t_end);

  /// Dispatches a single event. Returns false when the queue is empty.
  bool step();

  /// Number of events dispatched so far (for tests and micro-benches).
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// True when no events are pending.
  bool idle() const { return events_.empty(); }

  /// Observability hook: the attached trace recorder, or nullptr (default).
  /// Instrumented layers fetch this per operation, so tracing costs one
  /// branch when disabled. The recorder is not owned by the simulator; an
  /// attached recorder shuts the simulator down and detaches when it dies.
  obs::TraceRecorder* tracer() const { return tracer_; }
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  /// Functional payloads of the device tasks in flight on this simulator
  /// (payload_queue.hpp): deferred at each task's start, joined at its
  /// completion.
  PayloadQueue& payloads() { return payloads_; }

  // -- internal: used by process/future machinery ---------------------------

  /// Takes ownership of a finished coroutine frame spawned into live-list
  /// slot `slot`; destroyed after the current event completes (the frame
  /// is still live while unwinding).
  void retire(void* coroutine_address, std::size_t slot);

  /// Number of spawned processes whose frames are still live (suspended or
  /// running). Daemons that block on a channel forever count until the
  /// simulator destroys their frames at teardown.
  std::size_t live_processes() const { return live_count_; }

  /// Records an exception that escaped a process; rethrown from run().
  void record_exception(std::exception_ptr e);

 private:
  struct Event {
    Time time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;  // min-heap on time
      return a.seq > b.seq;                          // FIFO among ties
    }
  };

  void drain_zombies();
  void compact_live();
  void maybe_rethrow();

  Time now_ = 0.0;
  obs::TraceRecorder* tracer_ = nullptr;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  // Binary min-heap on (time, seq) under EventOrder (std::push_heap /
  // std::pop_heap), so step() can move the next event out instead of
  // copying it from a const top().
  std::vector<Event> events_;
  std::vector<void*> zombies_;
  // Frames of spawned processes in spawn order (deterministic teardown);
  // a finished frame leaves a nullptr tombstone in its slot, which its
  // promise records, and compact_live() squeezes the tombstones out once
  // half the slots are dead. Mostly eternal daemons waiting on a channel;
  // shutdown() destroys them so they cannot leak.
  std::vector<void*> live_;
  std::size_t live_count_ = 0;
  bool shut_down_ = false;
  std::exception_ptr pending_exception_;
  PayloadQueue payloads_;
};

}  // namespace prs::sim
