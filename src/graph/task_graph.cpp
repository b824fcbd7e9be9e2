#include "graph/task_graph.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "common/error.hpp"

namespace prs::graph {

TaskNode& TaskGraph::add_node(std::string name, std::string kind, int rank) {
  TaskNode& n = nodes_.emplace_back();
  n.name = std::move(name);
  n.kind = std::move(kind);
  n.rank = rank;
  return n;
}

NodeId TaskGraph::add_host(std::string name, std::string kind, int rank,
                           std::function<void()> fn) {
  add_node(std::move(name), std::move(kind), rank).host = std::move(fn);
  return nodes_.size() - 1;
}

NodeId TaskGraph::add_work(std::string name, std::string kind, int rank,
                           WorkFn fn) {
  PRS_REQUIRE(fn != nullptr, "add_work requires a work function");
  add_node(std::move(name), std::move(kind), rank).work = std::move(fn);
  return nodes_.size() - 1;
}

void TaskGraph::depend(NodeId node, NodeId before) {
  if (before == kNoNode) return;
  PRS_REQUIRE(node < nodes_.size() && before < nodes_.size(),
              "depend() on an unknown node id");
  PRS_REQUIRE(node != before, "a node cannot depend on itself");
  auto& deps = nodes_[node].deps;
  auto it = std::lower_bound(deps.begin(), deps.end(), before);
  if (it != deps.end() && *it == before) return;  // duplicate edge
  deps.insert(it, before);
  nodes_[before].outs.push_back(node);
  ++edges_;
}

void TaskGraph::depend_all(NodeId node, const std::vector<NodeId>& before) {
  for (NodeId b : before) depend(node, b);
}

void TaskGraph::validate() const {
  std::vector<std::size_t> indegree(nodes_.size(), 0);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    indegree[id] = nodes_[id].deps.size();
  }
  std::deque<NodeId> ready;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (indegree[id] == 0) ready.push_back(id);
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    NodeId id = ready.front();
    ready.pop_front();
    ++processed;
    for (NodeId out : nodes_[id].outs) {
      if (--indegree[out] == 0) ready.push_back(out);
    }
  }
  if (processed == nodes_.size()) return;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (indegree[id] > 0) {
      throw Error("task graph '" + name_ + "' has a dependency cycle through "
                  "node '" + nodes_[id].name + "'");
    }
  }
}

namespace {

const char* dot_shape(const std::string& kind) {
  if (kind == "host") return "ellipse";
  if (kind == "cpu") return "box";
  if (kind == "kernel") return "box3d";
  if (kind == "h2d" || kind == "d2h") return "parallelogram";
  if (kind == "net") return "diamond";
  return "oval";  // "delay" and anything else
}

std::string dot_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string TaskGraph::to_dot() const {
  std::string out;
  out += "digraph \"" + dot_escape(name_) + "\" {\n";
  out += "  rankdir=LR;\n";
  out += "  node [fontsize=10];\n";
  // Nodes grouped into one cluster per rank; ranks ascending, node ids
  // ascending within each cluster. std::map keeps rank order sorted.
  std::map<int, std::vector<NodeId>> by_rank;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    by_rank[nodes_[id].rank].push_back(id);
  }
  for (const auto& [rank, ids] : by_rank) {
    out += "  subgraph cluster_node" + std::to_string(rank) + " {\n";
    out += "    label=\"node" + std::to_string(rank) + "\";\n";
    for (NodeId id : ids) {
      const TaskNode& n = nodes_[id];
      out += "    n" + std::to_string(id) + " [label=\"" +
             dot_escape(n.name) + "\", shape=" + dot_shape(n.kind) + "];\n";
    }
    out += "  }\n";
  }
  // Edges sorted by (src, dst): deps are kept ascending, so emitting each
  // node's dep -> node pairs in id order yields (dst-major) order; collect
  // and sort to get the documented (src, dst) order instead.
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(edges_);
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    for (NodeId dep : nodes_[id].deps) edges.emplace_back(dep, id);
  }
  std::sort(edges.begin(), edges.end());
  for (const auto& [src, dst] : edges) {
    out += "  n" + std::to_string(src) + " -> n" + std::to_string(dst) + ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace prs::graph
