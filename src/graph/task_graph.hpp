// Dependency-driven task graph (StarPU-style codelets over the simulator).
//
// A TaskGraph is a DAG of named nodes; an edge (a -> b) means "b may not
// start until a completed". Nodes come in two flavors:
//
//   * host nodes  — a plain std::function<void()> that runs synchronously
//     at dispatch time (zero virtual time). Used for merges, bookkeeping,
//     convergence checks and stage-gate callbacks.
//   * work nodes  — a WorkFn the executor calls when the node becomes
//     ready. It starts the node's virtual-time work (CPU task, GPU kernel,
//     PCI-E copy, fabric message, plain delay) and returns the future that
//     resolves when that work is done. A single-step node returns its
//     device future directly (no process, no promise); a multi-step node
//     runs one coroutine behind spawn_work().
//
// The graph is a pure description: building it performs no simulation.
// GraphExecutor (graph/executor.hpp) walks it deterministically.
//
// Determinism contract: node ids are assigned in insertion order, ready
// nodes are dispatched in ascending id order, and to_dot() emits nodes and
// edges in sorted order — two identical builds produce byte-identical DOT
// and byte-identical execution schedules.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "simtime/future.hpp"
#include "simtime/process.hpp"
#include "simtime/simulator.hpp"

namespace prs::graph {

using NodeId = std::size_t;

/// Sentinel for "no dependency" — depend() on it is a no-op, which lets
/// builders thread an optional predecessor without branching.
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Work body of a node: called once, when the node becomes ready; returns
/// the future of the node's virtual-time work. Failures are reported via
/// GraphExecutor::fail, never by leaving the future unresolved.
using WorkFn = std::function<sim::Future<sim::Unit>(sim::Simulator&)>;

/// Runs a multi-step work body as one simulator process. `body` takes the
/// Promise<Unit> it must resolve exactly once and returns the coroutine.
template <typename Body>
sim::Future<sim::Unit> spawn_work(sim::Simulator& sim, Body&& body) {
  sim::Promise<sim::Unit> done(sim);
  sim::Future<sim::Unit> fut = done.get_future();
  sim.spawn(std::forward<Body>(body)(std::move(done)));
  return fut;
}

/// One codelet instance. `kind` is a coarse class used for tracing and
/// DOT styling: "host", "cpu", "kernel", "h2d", "d2h", "net", "delay".
struct TaskNode {
  std::string name;
  std::string kind;
  int rank = 0;  // owning fat node (trace track / DOT cluster)
  std::function<void()> host;
  WorkFn work;
  std::vector<NodeId> deps;  // predecessors, ascending
  std::vector<NodeId> outs;  // successors, insertion order
};

class TaskGraph {
 public:
  explicit TaskGraph(std::string name) : name_(std::move(name)) {}

  /// Adds a host node (runs synchronously at dispatch, zero virtual time).
  NodeId add_host(std::string name, std::string kind, int rank,
                  std::function<void()> fn);

  /// Adds a work node (its WorkFn is called when the node is ready).
  NodeId add_work(std::string name, std::string kind, int rank, WorkFn fn);

  /// Adds the edge `before -> node`. No-op when before == kNoNode;
  /// duplicate edges are coalesced.
  void depend(NodeId node, NodeId before);
  void depend_all(NodeId node, const std::vector<NodeId>& before);

  std::size_t size() const { return nodes_.size(); }
  std::size_t edge_count() const { return edges_; }
  bool empty() const { return nodes_.empty(); }
  const std::string& name() const { return name_; }
  const TaskNode& node(NodeId id) const { return nodes_[id]; }
  TaskNode& node(NodeId id) { return nodes_[id]; }

  /// Throws prs::Error when the graph has a dependency cycle (Kahn's
  /// algorithm); names one node on the cycle.
  void validate() const;

  /// Graphviz DOT rendering: nodes in id order grouped into one cluster
  /// per rank, edges sorted by (src, dst). Byte-deterministic.
  std::string to_dot() const;

 private:
  TaskNode& add_node(std::string name, std::string kind, int rank);

  std::string name_;
  std::vector<TaskNode> nodes_;
  std::size_t edges_ = 0;
};

}  // namespace prs::graph
