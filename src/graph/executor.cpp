#include "graph/executor.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "simtime/future.hpp"

namespace prs::graph {

GraphExecutor::GraphExecutor(sim::Simulator& sim, TaskGraph& graph)
    : sim_(sim), graph_(graph) {}

void GraphExecutor::start() {
  PRS_REQUIRE(!started_, "GraphExecutor::start called twice");
  started_ = true;
  graph_.validate();
  indegree_.assign(graph_.size(), 0);
  state_.assign(graph_.size(), kPending);
  start_time_.assign(graph_.size(), 0.0);
  for (NodeId id = 0; id < graph_.size(); ++id) {
    indegree_[id] = graph_.node(id).deps.size();
  }
  if (auto* tr = sim_.tracer(); tr != nullptr && tr->enabled()) {
    tr->metrics().counter("graph.nodes").add(
        static_cast<double>(graph_.size()));
    tr->metrics().counter("graph.edges").add(
        static_cast<double>(graph_.edge_count()));
  }
  // Initial ready set, ascending id order. dispatch() may cascade (host
  // chains complete inline), so re-check state before each dispatch.
  for (NodeId id = 0; id < graph_.size(); ++id) {
    if (indegree_[id] == 0 && state_[id] == kPending) dispatch(id);
  }
}

void GraphExecutor::record_span(const TaskNode& n, double t0, double t1) {
  auto* tr = sim_.tracer();
  if (tr == nullptr || !tr->enabled()) return;
  const obs::TrackId track =
      tr->track("node" + std::to_string(n.rank), "graph");
  tr->complete(track, n.name, "graph." + n.kind, t0, t1);
  tr->metrics().counter("graph.nodes_run").increment();
}

void GraphExecutor::dispatch(NodeId id) {
  TaskNode& n = graph_.node(id);
  state_[id] = kRunning;
  const double t0 = sim_.now();
  if (n.host) {
    try {
      n.host();
    } catch (...) {
      fail(std::current_exception(), n.name);
      // The node itself still completes (its side effects are void); its
      // successors were just cancelled, so nothing further dispatches.
      record_span(n, t0, sim_.now());
      complete(id);
      return;
    }
  }
  if (!n.work) {
    record_span(n, t0, sim_.now());
    complete(id);
    return;
  }
  // Work node: completion arrives through the returned future's event,
  // preserving simulator determinism. The callback captures two words so
  // it fits std::function's inline buffer (no allocation per node).
  start_time_[id] = t0;
  sim::Future<sim::Unit> fut = n.work(sim_);
  fut.on_ready([this, id](const sim::Unit&) { finish_async(id); });
}

void GraphExecutor::finish_async(NodeId id) {
  record_span(graph_.node(id), start_time_[id], sim_.now());
  complete(id);
}

void GraphExecutor::complete(NodeId id) {
  state_[id] = kDone;
  ++finished_;
  ++completed_;
  const TaskNode& n = graph_.node(id);
  // Newly-ready successors, dispatched in ascending id order. Collect
  // first: a successor completing inline could in principle unblock
  // another entry of this list. The list is this call's segment of
  // ready_, used as a stack: inline completions push their own segment
  // above it and pop it before returning.
  const std::size_t base = ready_.size();
  for (NodeId out : n.outs) {
    if (--indegree_[out] == 0 && state_[out] == kPending) {
      ready_.push_back(out);
    }
  }
  const std::size_t end = ready_.size();
  std::sort(ready_.begin() + static_cast<std::ptrdiff_t>(base), ready_.end());
  for (std::size_t i = base; i < end; ++i) {
    const NodeId r = ready_[i];
    if (state_[r] == kPending) dispatch(r);
  }
  ready_.resize(base);
}

void GraphExecutor::cancel_pending() {
  std::size_t n = 0;
  for (NodeId id = 0; id < state_.size(); ++id) {
    if (state_[id] == kPending) {
      state_[id] = kCancelled;
      ++finished_;
      ++cancelled_;
      ++n;
    }
  }
  if (n == 0) return;
  if (auto* tr = sim_.tracer(); tr != nullptr && tr->enabled()) {
    tr->metrics().counter("graph.cancelled").add(static_cast<double>(n));
  }
}

void GraphExecutor::fail(std::exception_ptr error, const std::string& where) {
  if (error_ != nullptr) return;  // first failure wins
  error_ = std::move(error);
  error_site_ = where;
  error_time_ = sim_.now();
  if (auto* tr = sim_.tracer(); tr != nullptr && tr->enabled()) {
    tr->metrics().counter("graph.failures").increment();
  }
  cancel_pending();
}

}  // namespace prs::graph
