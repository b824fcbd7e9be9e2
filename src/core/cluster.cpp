#include "core/cluster.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/units.hpp"
#include "obs/export.hpp"
#include "obs/pool_metrics.hpp"
#include "obs/trace.hpp"

namespace prs::core {

simnet::FabricSpec default_fabric_spec() {
  // Gigabit-Ethernet-class fabric as on the paper's clusters: ~125 MB/s
  // effective per link, ~50 us end-to-end MPI latency. This combination
  // reproduces both Table 3's MPI allreduce overhead and the ~5% global-
  // reduction drop at 8 nodes in Figure 6.
  simnet::FabricSpec s;
  s.link_bandwidth = units::gb_per_s(0.125);
  s.latency = units::usec(50.0);
  return s;
}

Cluster::Cluster(sim::Simulator& sim, int nodes, NodeConfig node_config,
                 simnet::FabricSpec fabric_spec)
    : sim_(sim),
      fabric_(std::make_unique<simnet::Fabric>(sim, nodes, fabric_spec)) {
  PRS_REQUIRE(nodes >= 1, "cluster needs at least one node");
  build(std::vector<NodeConfig>(static_cast<std::size_t>(nodes),
                                std::move(node_config)));
}

Cluster::Cluster(sim::Simulator& sim, std::vector<NodeConfig> node_configs,
                 simnet::FabricSpec fabric_spec)
    : sim_(sim),
      fabric_(std::make_unique<simnet::Fabric>(
          sim, static_cast<int>(node_configs.size()), fabric_spec)) {
  PRS_REQUIRE(!node_configs.empty(), "cluster needs at least one node");
  build(node_configs);
}

Cluster::~Cluster() {
  // Suspended device workers and supervisors reference the nodes and
  // fabric about to be freed: destroy their frames first.
  sim_.shutdown();
  if (env_tracer_ == nullptr) return;
  try {
    obs::export_chrome_trace(*env_tracer_, env_trace_path_ + ".json");
    if (!env_tracer_->metrics().empty()) {
      // Runs that recorded metrics also get the host pool's exec.pool.*
      // snapshot (not byte-reproducible — see obs/pool_metrics.hpp).
      obs::record_pool_metrics(env_tracer_->metrics());
      obs::export_metrics(env_tracer_->metrics(),
                          env_trace_path_ + ".metrics.csv");
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "warning: trace export failed: %s\n", e.what());
  }
  if (sim_.tracer() == env_tracer_.get()) sim_.set_tracer(nullptr);
}

void Cluster::maybe_attach_env_tracer() {
  if (sim_.tracer() != nullptr) return;  // explicit attachment wins
  const char* dir = std::getenv("PRS_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return;
  // One file per cluster, numbered in construction order so repeated
  // cluster setups within one process do not clobber each other.
  static int next_cluster_id = 0;
  env_tracer_ = std::make_unique<obs::TraceRecorder>(sim_);
  env_trace_path_ =
      std::string(dir) + "/cluster" + std::to_string(next_cluster_id++);
  sim_.set_tracer(env_tracer_.get());
}

void Cluster::build(const std::vector<NodeConfig>& configs) {
  maybe_attach_env_tracer();
  node_configs_ = configs;
  for (std::size_t r = 0; r < configs.size(); ++r) {
    nodes_.push_back(
        std::make_unique<FatNode>(sim_, configs[r], static_cast<int>(r)));
    schedulers_.push_back(std::make_unique<roofline::AnalyticScheduler>(
        configs[r].cpu, configs[r].gpu));
    homogeneous_ =
        homogeneous_ &&
        configs[r].cpu.name == configs[0].cpu.name &&
        configs[r].gpu.name == configs[0].gpu.name &&
        configs[r].gpus_per_node == configs[0].gpus_per_node &&
        configs[r].reserved_cpu_cores == configs[0].reserved_cpu_cores;
  }
}

FatNode& Cluster::node(int rank) {
  PRS_REQUIRE(rank >= 0 && rank < size(), "node rank out of range");
  return *nodes_[static_cast<std::size_t>(rank)];
}

const NodeConfig& Cluster::node_config(int rank) const {
  PRS_REQUIRE(rank >= 0 && rank < size(), "node rank out of range");
  return node_configs_[static_cast<std::size_t>(rank)];
}

const roofline::AnalyticScheduler& Cluster::scheduler(int rank) const {
  PRS_REQUIRE(rank >= 0 && rank < size(), "node rank out of range");
  return *schedulers_[static_cast<std::size_t>(rank)];
}

double Cluster::total_cpu_busy() const {
  double t = 0.0;
  for (const auto& n : nodes_) t += n->cpu_busy();
  return t;
}

double Cluster::total_gpu_busy() const {
  double t = 0.0;
  for (const auto& n : nodes_) t += n->gpu_busy();
  return t;
}

double Cluster::total_cpu_flops() const {
  double f = 0.0;
  for (const auto& n : nodes_) f += n->cpu_flops();
  return f;
}

double Cluster::total_gpu_flops() const {
  double f = 0.0;
  for (const auto& n : nodes_) f += n->gpu_flops();
  return f;
}

double Cluster::total_pcie_bytes() const {
  double b = 0.0;
  for (const auto& n : nodes_) b += n->pcie_bytes();
  return b;
}

void Cluster::reset_counters() {
  for (auto& n : nodes_) n->reset_counters();
}

void Cluster::set_fault_hooks(simdev::ExecFaultHook* exec_hook,
                              simnet::NetFaultHook* net_hook) {
  for (int r = 0; r < size(); ++r) {
    FatNode& n = node(r);
    n.cpu().set_fault_context(exec_hook, r);
    for (int g = 0; g < n.gpu_count(); ++g) {
      n.gpu(g).set_fault_context(exec_hook, r, g);
    }
  }
  fabric_->set_fault_hook(net_hook);
}

}  // namespace prs::core
