#include "simtime/payload_queue.hpp"

#include <utility>

#include "common/error.hpp"
#include "exec/parallel.hpp"

namespace prs::sim {
namespace {

/// Runs one slot's body, keeping its exception with the slot. The body
/// itself (and what it captured) is released with the slot, on the
/// simulator thread.
void run_slot(PayloadQueue::Slot& slot) {
  try {
    slot.body();
  } catch (...) {
    slot.error = std::current_exception();
  }
  slot.done = true;
}

}  // namespace

PayloadQueue::Ticket PayloadQueue::defer(std::function<void()> body) {
  PRS_REQUIRE(static_cast<bool>(body), "deferred payload must be callable");
  auto slot = std::make_shared<Slot>();
  slot->body = std::move(body);
  queue_.push_back(slot);
  return slot;
}

void PayloadQueue::join(const Ticket& ticket) {
  if (ticket == nullptr) return;
  if (!ticket->done) run_batch();
  PRS_CHECK(ticket->done, "joined payload was never queued");
  if (ticket->error != nullptr) std::rethrow_exception(ticket->error);
}

void PayloadQueue::run_batch() {
  std::vector<Ticket> batch;
  batch.swap(queue_);
  if (batch.size() == 1) {
    run_slot(*batch.front());
    return;
  }
  exec::parallel_for(0, batch.size(), 1, [&batch](std::size_t b,
                                                  std::size_t e) {
    for (std::size_t i = b; i < e; ++i) run_slot(*batch[i]);
  });
}

}  // namespace prs::sim
