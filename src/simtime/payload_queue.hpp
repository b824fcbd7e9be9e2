// Deferred functional payloads of in-flight device tasks.
//
// A device task's functional payload (simdev::CpuTask::body,
// simdev::KernelDesc::body) computes the task's real result on the host.
// The virtual clock only fixes a window for it: the payload may run at any
// point between the task's virtual start and its virtual completion. The
// devices use that window to run blocks that are in flight together in
// virtual time together on the host's cores, the way the paper's CPU
// daemon runs one pthread per core:
//
//   * defer() — at the task's start (core or compute engine held, fault
//     decision made) the device queues the body and keeps the ticket. A
//     failed or hung task never queues its body.
//   * join() — at the task's completion the device joins its ticket. If
//     the body has not run yet, every queued body runs now as ONE
//     exec::parallel_for region, one body per chunk, in queue order. Bodies
//     in a batch are nested regions, so their own parallel loops run
//     inline on their lane; a batch of one runs at top level instead, so a
//     lone block still spreads its inner loop over the pool.
//   * A body's exception is stored with its ticket and rethrown by that
//     ticket's join: failures surface at the failing task's completion, on
//     the simulator thread, exactly as if the body had run there.
//
// The contract a body keeps (DESIGN.md §4f): it reads only inputs that
// stay frozen from its task's start to its completion, writes only state
// that nothing else reads or writes before that completion, and never
// touches the simulator. Everything else a task does at completion —
// accounting, failure bookkeeping — stays on the simulator thread after
// the join. Joins only ever happen on the simulator thread, which waits
// for the whole batch, so nothing the simulator observes changes: results,
// virtual time and traces are byte-identical to running each body alone
// at its completion.
//
// The queue belongs to one Simulator. Bodies still queued when it is
// destroyed (a run abandoned after an exception) are dropped unrun.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <vector>

namespace prs::sim {

class PayloadQueue {
 public:
  /// One deferred body: the body until it runs, then its outcome.
  struct Slot {
    std::function<void()> body;
    std::exception_ptr error;
    bool done = false;
  };
  /// Handle a device keeps from defer() to join(); empty = nothing queued.
  using Ticket = std::shared_ptr<Slot>;

  PayloadQueue() = default;
  PayloadQueue(const PayloadQueue&) = delete;
  PayloadQueue& operator=(const PayloadQueue&) = delete;

  /// Queues `body`; it runs no later than join() of the returned ticket.
  Ticket defer(std::function<void()> body);

  /// Makes sure the ticket's body has run — running every queued body as
  /// one batch if it has not — then rethrows the body's exception, if any.
  /// An empty ticket is a no-op.
  void join(const Ticket& ticket);

  /// Bodies queued and not yet run.
  std::size_t pending() const { return queue_.size(); }

  /// Drops every queued body unrun.
  void clear() { queue_.clear(); }

 private:
  void run_batch();

  std::vector<Ticket> queue_;
};

}  // namespace prs::sim
