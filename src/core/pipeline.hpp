// Stage objects of the PRS execution pipeline (paper §III.A.2):
// map -> combine -> shuffle -> reduce -> gather, one instance per node per
// job. The task-graph builder in job_graph.hpp composes them into one
// graph per job; the fault-tolerant runner reuses the batch and
// accounting helpers.
//
// Each stage owns its logic, accounting, and tracing/metrics sites; the
// graph nodes hold the co_await sites, so stages stay plain (unit-sized,
// testable) objects. The only auxiliary processes are the dynamic-mode
// device daemons and the block dispatcher (§III.B.2), spawned by
// MapStage::start_dynamic.
//
// NOTE (GCC 12): all co_await sites follow the named-temporary rule
// documented in simtime/process.hpp.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/cluster.hpp"
#include "core/job.hpp"
#include "core/mapreduce_spec.hpp"
#include "core/partitioner.hpp"
#include "core/schedule_policy.hpp"
#include "obs/trace.hpp"
#include "simtime/channel.hpp"
#include "simtime/future.hpp"
#include "simtime/process.hpp"

namespace prs::core {
namespace detail {

inline constexpr int kShuffleTag = 100;
inline constexpr int kGatherTag = 200;
inline constexpr int kDistributeTag = 300;

/// Type-erased scheduling view of a spec (the policy layer is not
/// templated on key/value types). The returned shape borrows `spec`.
template <typename K, typename V>
JobShape job_shape(const MapReduceSpec<K, V>& spec) {
  JobShape shape;
  shape.ai_cpu = spec.ai_cpu;
  shape.ai_gpu = spec.ai_gpu;
  shape.gpu_data_cached = spec.gpu_data_cached;
  shape.item_bytes = spec.item_bytes;
  const auto* s = &spec;
  shape.ai_of_block = [s](double b) { return s->ai_of_block_or_default(b); };
  return shape;
}

/// Mutable state shared by the per-node processes of one job run.
template <typename K, typename V>
struct JobState {
  const MapReduceSpec<K, V>* spec = nullptr;
  JobConfig cfg;
  std::size_t n_items = 0;
  // Per-node scheduling decisions (inhomogeneous fat nodes get their own
  // Eq (8) split and stream count, §III.B.3.a).
  std::vector<double> cpu_fraction;  // p: share mapped on the node's CPU
  std::vector<int> gpu_streams;
  std::vector<std::vector<InputSlice>> node_partitions;

  // Outputs / accounting (single-threaded simulator: no locking needed).
  std::map<K, V> final_output;
  int nodes_done = 0;
  std::uint64_t map_tasks = 0;
  std::uint64_t reduce_tasks = 0;
  std::uint64_t intermediate_pairs = 0;

  // Phase breakdown: max over nodes (the stage barrier is the slowest node).
  double startup_time = 0.0;
  double map_time = 0.0;
  double shuffle_time = 0.0;
  double reduce_time = 0.0;
  double gather_time = 0.0;
};

/// Builds the JobState (level-1/level-2 scheduling decisions) over the
/// `alive` ranks (ascending): per-node Eq (8) split and stream counts,
/// capability-weighted partitioning. Ranks outside `alive` keep p = 0,
/// capability 0 (no partition items) and one stream.
template <typename K, typename V>
std::shared_ptr<JobState<K, V>> make_job_state(
    Cluster& cluster, const MapReduceSpec<K, V>& spec, const JobConfig& cfg,
    std::size_t n_items, SchedulePolicy* policy,
    const std::vector<int>& alive) {
  auto st = std::make_shared<JobState<K, V>>();
  st->spec = &spec;
  st->cfg = cfg;
  st->n_items = n_items;
  const auto nodes = static_cast<std::size_t>(cluster.size());
  const JobShape shape = job_shape(spec);
  st->cpu_fraction.resize(nodes, 0.0);
  st->gpu_streams.resize(nodes, 1);
  std::vector<double> capability(nodes, 0.0);
  for (int r : alive) {
    const auto rk = static_cast<std::size_t>(r);
    const NodeDecision d = policy->node_decision(cluster, shape, cfg, r);
    st->cpu_fraction[rk] = d.cpu_fraction;
    capability[rk] = d.capability;
  }
  st->node_partitions =
      Partitioner::partition(n_items, capability, cfg.partitions_per_node);
  for (int r : alive) {
    const auto rk = static_cast<std::size_t>(r);
    std::size_t node_items = 0;
    for (const auto& p : st->node_partitions[rk]) node_items += p.size();
    st->gpu_streams[rk] = policy->gpu_streams(cluster, shape, cfg, r,
                                              node_items,
                                              st->cpu_fraction[rk]);
  }
  return st;
}

/// Everything the stages of one node share for one job run.
template <typename K, typename V>
struct StageContext {
  Cluster* cluster = nullptr;
  JobState<K, V>* st = nullptr;
  SchedulePolicy* policy = nullptr;
  int rank = 0;
  obs::TraceRecorder* tr = nullptr;  // nullptr when tracing is off
  obs::TrackId runner_track = 0;

  sim::Simulator& sim() const { return cluster->simulator(); }
  FatNode& node() const { return cluster->node(rank); }
  const MapReduceSpec<K, V>& spec() const { return *st->spec; }
  std::size_t rk() const { return static_cast<std::size_t>(rank); }
};

/// Per-node transient state for the map stage.
template <typename K, typename V>
struct NodeMapBatch {
  std::deque<Emitter<K, V>> emitters;  // one per map task
  std::uint64_t gpu_pairs = 0;         // pairs produced on the GPU
  std::uint64_t gpu_items = 0;         // input items mapped on GPU
};

/// The map payload this job runs on `gpu` or CPU blocks: the real kernel
/// in functional mode, the modeled stand-in otherwise (may be empty).
template <typename K, typename V>
const typename MapReduceSpec<K, V>::MapFn& map_payload(
    const JobState<K, V>& st, bool gpu) {
  const auto& spec = *st.spec;
  if (st.cfg.mode != ExecutionMode::kFunctional) return spec.modeled_map;
  return gpu ? spec.gpu_map_or_default() : spec.cpu_map;
}

/// Attaches `run`, a call of map_payload(st, ...) on one block, to the
/// block's CPU task or GPU kernel: a functional payload as the `body` the
/// device runs within the task's start-to-completion window, a modeled
/// stand-in as the `stand_in` it runs inline at completion.
template <typename Task, typename K, typename V, typename Run>
void attach_map_payload(Task& task, const JobState<K, V>& st, Run&& run) {
  if (st.cfg.mode == ExecutionMode::kFunctional) {
    task.body = std::forward<Run>(run);
  } else {
    task.stand_in = std::forward<Run>(run);
  }
}

/// The timed CPU map task for `slice`, without its payload.
template <typename K, typename V>
simdev::CpuTask cpu_map_task(const MapReduceSpec<K, V>& spec,
                             InputSlice slice) {
  const auto items = static_cast<double>(slice.size());
  simdev::CpuTask t;
  t.name = spec.name + ":map:cpu";
  t.workload.flops = items * spec.cpu_flops_per_item;
  t.workload.mem_traffic = items * spec.cpu_traffic_per_item();
  t.compute_efficiency = spec.efficiency.cpu_compute;
  t.memory_efficiency = spec.efficiency.cpu_memory;
  return t;
}

/// The timed GPU map kernel for `slice`, without its payload.
template <typename K, typename V>
simdev::KernelDesc gpu_map_kernel(const MapReduceSpec<K, V>& spec,
                                  InputSlice slice) {
  const auto items = static_cast<double>(slice.size());
  simdev::KernelDesc k;
  k.name = spec.name + ":map:gpu";
  k.workload.flops = items * spec.gpu_flops_per_item;
  k.workload.mem_traffic = items * spec.gpu_traffic_per_item();
  k.compute_efficiency = spec.efficiency.gpu_compute;
  k.memory_efficiency = spec.efficiency.gpu_memory;
  return k;
}

/// Builds the timed CPU map task for `slice`; its payload emits into
/// `emitter`.
template <typename K, typename V>
simdev::CpuTask make_cpu_map_task(const JobState<K, V>& st, InputSlice slice,
                                  Emitter<K, V>* emitter) {
  simdev::CpuTask t = cpu_map_task(*st.spec, slice);
  const auto* fn = &map_payload(st, /*gpu=*/false);
  if (*fn) {
    attach_map_payload(t, st,
                       [fn, slice, emitter] { (*fn)(slice, *emitter); });
  }
  return t;
}

/// Builds the timed GPU map kernel for `slice`; its payload emits into
/// `emitter`.
template <typename K, typename V>
simdev::KernelDesc make_gpu_map_kernel(const JobState<K, V>& st,
                                       InputSlice slice,
                                       Emitter<K, V>* emitter) {
  simdev::KernelDesc k = gpu_map_kernel(*st.spec, slice);
  const auto* fn = &map_payload(st, /*gpu=*/true);
  if (*fn) {
    attach_map_payload(k, st,
                       [fn, slice, emitter] { (*fn)(slice, *emitter); });
  }
  return k;
}

/// Dynamic-mode CPU worker: polls blocks whenever its core frees up.
template <typename K, typename V>
sim::Process cpu_block_worker(JobState<K, V>& st, FatNode& node,
                              NodeMapBatch<K, V>& batch,
                              sim::Channel<InputSlice>& blocks,
                              std::shared_ptr<int> live,
                              sim::Promise<sim::Unit> all_done) {
  for (;;) {
    auto b = co_await blocks.recv();
    if (!b) break;
    Emitter<K, V>* emitter = &batch.emitters.emplace_back();
    simdev::CpuTask t = make_cpu_map_task(st, *b, emitter);
    ++st.map_tasks;
    auto fut = node.cpu().submit(std::move(t));
    co_await fut;
  }
  if (--*live == 0) all_done.set_value(sim::Unit{});
}

/// Dynamic-mode GPU pipeline: one per (card, stream), polls when idle.
template <typename K, typename V>
sim::Process gpu_block_worker(JobState<K, V>& st, FatNode& node,
                              NodeMapBatch<K, V>& batch,
                              sim::Channel<InputSlice>& blocks, int card,
                              int stream_index, std::shared_ptr<int> live,
                              sim::Promise<sim::Unit> all_done) {
  auto& gpu = node.gpu(card);
  simdev::Stream& stream = gpu.stream(stream_index);
  const auto& spec = *st.spec;
  for (;;) {
    auto b = co_await blocks.recv();
    if (!b) break;
    if (!spec.gpu_data_cached) {
      auto copy = stream.memcpy_h2d(static_cast<double>(b->size()) *
                                    spec.item_bytes);
      co_await copy;
    }
    Emitter<K, V>* emitter = &batch.emitters.emplace_back();
    simdev::KernelDesc k = make_gpu_map_kernel(st, *b, emitter);
    batch.gpu_items += b->size();
    ++st.map_tasks;
    auto fut = stream.launch(std::move(k));
    co_await fut;
    // The payload has joined: its pairs are final.
    batch.gpu_pairs += emitter->size();
  }
  if (--*live == 0) all_done.set_value(sim::Unit{});
}

/// Dynamic-mode dispatcher: feeds blocks into the channel, charging the
/// serial per-task dispatch cost as each block is handed out — daemons pay
/// the dispatch latency only for blocks they actually pull, instead of the
/// whole partition's worth up front.
inline sim::Process block_dispatcher(
    sim::Simulator& sim, std::shared_ptr<std::vector<InputSlice>> list,
    sim::Channel<InputSlice>& blocks) {
  for (const InputSlice& b : *list) {
    auto handoff = sim::delay(sim, calib::kPrsTaskDispatch);
    co_await handoff;
    blocks.send(b);
  }
  blocks.close();
}

/// Merges emitted pairs into an ordered map with the spec's combiner
/// (the node-local combine step; also used for the reduce merge). Modeled
/// stand-ins carry keys only (MapReduceSpec::modeled_map): there the merge
/// records each key with a value-initialised value and never combines.
template <typename K, typename V>
void combine_into(const MapReduceSpec<K, V>& spec, ExecutionMode mode,
                  std::map<K, V>& acc, std::vector<std::pair<K, V>>& pairs) {
  if (mode != ExecutionMode::kFunctional) {
    for (auto& kv : pairs) acc.try_emplace(std::move(kv.first));
    return;
  }
  for (auto& [k, v] : pairs) {
    auto it = acc.find(k);
    if (it == acc.end()) {
      acc.emplace(std::move(k), std::move(v));
    } else {
      it->second = spec.combine(it->second, v);
    }
  }
}

// -- map stage ----------------------------------------------------------------

/// §III.A.2 map stage: plans static map blocks (one graph node each) or
/// runs dynamic channel polling, then copies GPU intermediates back and
/// charges host-side key/value handling.
template <typename K, typename V>
class MapStage {
 public:
  explicit MapStage(StageContext<K, V>& ctx) : ctx_(ctx) {}

  NodeMapBatch<K, V>& batch() { return batch_; }

  /// Serial dispatch cost charged up front in static mode: the daemon
  /// thread enqueues every block of this partition before any runs.
  double static_dispatch_cost() const {
    const auto& st = *ctx_.st;
    const double est_tasks =
        (st.cpu_fraction[ctx_.rk()] > 0.0
             ? roofline::AnalyticScheduler::cpu_block_count(
                   ctx_.node().cpu().cores())
             : 0) +
        (st.cpu_fraction[ctx_.rk()] < 1.0
             ? st.gpu_streams[ctx_.rk()] * ctx_.node().gpu_count()
             : 0);
    return est_tasks * calib::kPrsTaskDispatch;
  }

  /// One GPU map block of a static plan, pinned to (card, stream) by the
  /// paper's round-robin (§III.C.1).
  struct GpuBlockPlan {
    InputSlice slice;
    int card = 0;
    int stream = 0;
  };

  /// The static sub-task plan for one partition: CPU share into
  /// multiplier x cores blocks, GPU share into one block per (card,
  /// stream) round-robin. Pure description — the task-graph builder
  /// (core/job_graph.hpp) turns each block into one graph node.
  struct StaticPlan {
    std::vector<InputSlice> cpu_blocks;
    std::vector<GpuBlockPlan> gpu_blocks;
  };

  StaticPlan plan_static(const InputSlice& partition) const {
    const auto& st = *ctx_.st;
    FatNode& node = ctx_.node();
    const int streams = st.gpu_streams[ctx_.rk()];
    auto [cpu_part, gpu_part] =
        partition.split_at_fraction(st.cpu_fraction[ctx_.rk()]);
    StaticPlan plan;
    if (!cpu_part.empty()) {
      const int n_blocks =
          roofline::AnalyticScheduler::cpu_block_count(node.cpu().cores());
      for (const InputSlice& b :
           cpu_part.blocks(static_cast<std::size_t>(n_blocks))) {
        plan.cpu_blocks.push_back(b);
      }
    }
    if (!gpu_part.empty() && node.gpu_count() > 0) {
      // One daemon per GPU card (paper §III.C.1): blocks round-robin over
      // cards, then over each card's streams.
      const auto cards = static_cast<std::size_t>(node.gpu_count());
      const auto n_blocks = static_cast<std::size_t>(streams) * cards;
      std::size_t i = 0;
      for (const InputSlice& b : gpu_part.blocks(n_blocks)) {
        GpuBlockPlan gb;
        gb.slice = b;
        gb.card = static_cast<int>(i % cards);
        gb.stream = static_cast<int>(
            (i / cards) % static_cast<std::size_t>(streams));
        ++i;
        plan.gpu_blocks.push_back(gb);
      }
    }
    return plan;
  }

  /// The dynamic block list of one partition: fixed-size blocks of the
  /// policy's granularity, in dispatch order.
  std::vector<InputSlice> dynamic_blocks(const InputSlice& partition) const {
    const JobShape shape = job_shape(ctx_.spec());
    const std::size_t block_items = ctx_.policy->block_items(
        *ctx_.cluster, shape, ctx_.st->cfg, ctx_.rank, partition.size());
    return partition.blocks_of(block_items);
  }

  /// Dynamic dispatch of one partition: spawns the per-device block
  /// workers and the serial dispatcher; the returned future resolves when
  /// every worker has drained the channel and finished.
  sim::Future<sim::Unit> start_dynamic(const InputSlice& partition) {
    auto& st = *ctx_.st;
    auto& sim = ctx_.sim();
    FatNode& node = ctx_.node();
    auto blocks_list = std::make_shared<std::vector<InputSlice>>(
        dynamic_blocks(partition));

    auto blocks = std::make_shared<sim::Channel<InputSlice>>(sim);
    channels_.push_back(blocks);  // keep alive until the job completes
    const int cpu_workers = st.cfg.use_cpu ? node.cpu().cores() : 0;
    const int gpu_cards =
        (st.cfg.use_gpu && node.gpu_count() > 0) ? node.gpu_count() : 0;
    const int gpu_workers = gpu_cards * st.gpu_streams[ctx_.rk()];
    PRS_REQUIRE(cpu_workers + gpu_workers > 0,
                "dynamic scheduling needs at least one device");
    auto live = std::make_shared<int>(cpu_workers + gpu_workers);
    sim::Promise<sim::Unit> all_done(sim);
    for (int w = 0; w < cpu_workers; ++w) {
      sim.spawn(
          cpu_block_worker(st, node, batch_, *blocks, live, all_done));
    }
    for (int card = 0; card < gpu_cards; ++card) {
      for (int w = 0; w < st.gpu_streams[ctx_.rk()]; ++w) {
        sim.spawn(gpu_block_worker(st, node, batch_, *blocks, card, w, live,
                                   all_done));
      }
    }
    sim.spawn(block_dispatcher(sim, std::move(blocks_list), *blocks));
    return all_done.get_future();
  }

  /// Bytes of GPU-resident intermediates to copy back after the map
  /// barrier: emitted pairs plus per-item intermediate rows.
  double d2h_bytes() const {
    const auto& spec = ctx_.spec();
    return static_cast<double>(batch_.gpu_pairs) * spec.pair_bytes +
           static_cast<double>(batch_.gpu_items) * spec.gpu_item_d2h_bytes;
  }

  /// Intermediate data in GPU memory is copied back to CPU memory after
  /// all local map tasks finish (§III.A.2). With several cards the
  /// transfers run in parallel over each card's own PCI-E link.
  sim::Future<sim::Unit> copy_back() {
    FatNode& node = ctx_.node();
    const double d2h_bytes = this->d2h_bytes();
    std::vector<sim::Future<sim::Unit>> copies;
    if (d2h_bytes > 0.0 && node.gpu_count() > 0) {
      const double per_card =
          d2h_bytes / static_cast<double>(node.gpu_count());
      for (int g = 0; g < node.gpu_count(); ++g) {
        copies.push_back(node.gpu(g).default_stream().memcpy_d2h(per_card));
      }
    }
    return sim::when_all(ctx_.sim(), copies);
  }

  /// Host-side key/value handling cost (emit buffers, local sort/merge).
  double host_merge_cost(std::size_t node_items) const {
    return static_cast<double>(node_items) * calib::kPrsPerItemOverhead;
  }

  /// Records the phase span and folds this node's time into the job max.
  void finish(double t0, std::size_t node_items) {
    auto& st = *ctx_.st;
    const double now = ctx_.sim().now();
    st.map_time = std::max(st.map_time, now - t0);
    if (ctx_.tr != nullptr) {
      ctx_.tr->complete(
          ctx_.runner_track, "map", "phase", t0, now,
          {obs::arg("items", static_cast<std::uint64_t>(node_items)),
           obs::arg("gpu_items", batch_.gpu_items)});
    }
  }

 private:
  StageContext<K, V>& ctx_;
  NodeMapBatch<K, V> batch_;
  // One channel per dynamically dispatched partition; workers may still
  // hold references when the partition loop moves on, so channels live as
  // long as the stage.
  std::vector<std::shared_ptr<sim::Channel<InputSlice>>> channels_;
};

// -- shuffle stage ------------------------------------------------------------

/// Local combine (the paper's optional combiner(), Table 1) followed by
/// bucketing: pairs with the same key land on hash(key) % dests.
template <typename K, typename V>
class ShuffleStage {
 public:
  explicit ShuffleStage(StageContext<K, V>& ctx) : ctx_(ctx) {}

  /// One message per destination: the whole cluster on the graph path,
  /// the alive set (by position) on the tolerant path.
  std::vector<simnet::Message> prepare(NodeMapBatch<K, V>& batch,
                                       std::size_t dests) {
    auto& st = *ctx_.st;
    const auto& spec = ctx_.spec();
    std::vector<std::vector<std::pair<K, V>>> buckets(dests);
    if (spec.local_combine) {
      std::map<K, V> combined;
      for (auto& e : batch.emitters) {
        st.intermediate_pairs += e.size();
        combine_into(spec, st.cfg.mode, combined, e.pairs());
      }
      for (auto& [k, v] : combined) {
        buckets[std::hash<K>{}(k) % dests].emplace_back(k, std::move(v));
      }
    } else {
      // No combiner: every raw emitted pair goes on the wire; the reduce
      // stage does all the merging.
      for (auto& e : batch.emitters) {
        st.intermediate_pairs += e.size();
        for (auto& [k, v] : e.pairs()) {
          buckets[std::hash<K>{}(k) % dests].emplace_back(std::move(k),
                                                          std::move(v));
        }
      }
    }
    std::vector<simnet::Message> outbound;
    outbound.reserve(dests);
    for (auto& bucket : buckets) {
      auto payload = std::make_shared<std::vector<std::pair<K, V>>>(
          std::move(bucket));
      const double bytes =
          static_cast<double>(payload->size()) * spec.pair_bytes;
      outbound.emplace_back(bytes, std::move(payload));
    }
    if (ctx_.tr != nullptr) {
      auto& h = ctx_.tr->metrics().histogram(
          "shuffle.msg_bytes", obs::geometric_buckets(64.0, 4.0, 16));
      for (const auto& m : outbound) h.observe(m.bytes);
    }
    return outbound;
  }

  void finish(double t0) {
    auto& st = *ctx_.st;
    const double now = ctx_.sim().now();
    st.shuffle_time = std::max(st.shuffle_time, now - t0);
    if (ctx_.tr != nullptr) {
      ctx_.tr->complete(ctx_.runner_track, "shuffle", "phase", t0, now);
    }
  }

 private:
  StageContext<K, V>& ctx_;
};

// -- reduce stage -------------------------------------------------------------

/// The timed CPU reduce task over `pairs` pairs.
template <typename K, typename V>
simdev::CpuTask cpu_reduce_task(const MapReduceSpec<K, V>& spec,
                                double pairs) {
  simdev::CpuTask t;
  t.name = spec.name + ":reduce:cpu";
  t.workload.flops = pairs * spec.reduce_flops_per_pair;
  t.workload.mem_traffic = pairs * spec.pair_bytes;
  t.compute_efficiency = spec.efficiency.cpu_compute;
  t.memory_efficiency = spec.efficiency.cpu_memory;
  return t;
}

/// Merges inbound shuffle payloads and charges the reduce tasks on the
/// devices, split like the map stage. GPU reduce work is spread across all
/// cards (each with its own PCI-E link), mirroring the map-stage D2H path.
template <typename K, typename V>
class ReduceStage {
 public:
  explicit ReduceStage(StageContext<K, V>& ctx) : ctx_(ctx) {}

  std::map<K, V> merge(std::vector<simnet::Message>& inbound,
                       std::size_t& reduce_pairs) {
    using Payload = std::shared_ptr<std::vector<std::pair<K, V>>>;
    std::map<K, V> reduced;
    reduce_pairs = 0;
    for (auto& m : inbound) {
      if (!m.has_payload()) continue;
      auto& pairs = *m.template payload_as<Payload>();
      reduce_pairs += pairs.size();
      combine_into(ctx_.spec(), ctx_.st->cfg.mode, reduced, pairs);
    }
    return reduced;
  }

  /// Submits the reduce tasks. When `est` is given it receives the summed
  /// modeled duration of every submitted piece (the tolerant path's
  /// deadline; a safe over-estimate).
  std::vector<sim::Future<sim::Unit>> submit_device_tasks(
      std::size_t reduce_pairs, double* est = nullptr) {
    auto& st = *ctx_.st;
    const auto& spec = ctx_.spec();
    FatNode& node = ctx_.node();
    std::vector<sim::Future<sim::Unit>> futs;
    if (reduce_pairs == 0) return futs;
    const auto cpu_pairs = static_cast<double>(reduce_pairs) *
                           st.cpu_fraction[ctx_.rk()];
    const double gpu_pairs = static_cast<double>(reduce_pairs) - cpu_pairs;
    if (cpu_pairs > 0.0) {
      simdev::CpuTask t = cpu_reduce_task(spec, cpu_pairs);
      if (est != nullptr) *est += node.cpu().task_duration(t);
      futs.push_back(node.cpu().submit(std::move(t)));
      ++st.reduce_tasks;
    }
    if (gpu_pairs > 0.0 && node.gpu_count() > 0) {
      // One reduce task per card so multi-GPU nodes use every card's
      // compute and PCI-E link, not just card 0's.
      const double per_card =
          gpu_pairs / static_cast<double>(node.gpu_count());
      for (int g = 0; g < node.gpu_count(); ++g) {
        auto& gpu = node.gpu(g);
        auto& stream = gpu.default_stream();
        // Reduce input starts in CPU memory after the shuffle: stage it.
        futs.push_back(stream.memcpy_h2d(per_card * spec.pair_bytes));
        simdev::KernelDesc k;
        k.name = spec.name + ":reduce:gpu";
        k.workload.flops = per_card * spec.reduce_flops_per_pair;
        k.workload.mem_traffic = per_card * spec.pair_bytes;
        k.compute_efficiency = spec.efficiency.gpu_compute;
        k.memory_efficiency = spec.efficiency.gpu_memory;
        if (est != nullptr) {
          *est += gpu.kernel_duration(k);
          if (gpu.spec().pcie_bandwidth > 0.0) {
            *est += 2.0 * per_card * spec.pair_bytes /
                    gpu.spec().pcie_bandwidth;
          }
        }
        futs.push_back(stream.launch(std::move(k)));
        futs.push_back(stream.memcpy_d2h(per_card * spec.pair_bytes));
        ++st.reduce_tasks;
      }
    }
    return futs;
  }

  void finish(double t0, std::size_t reduce_pairs) {
    auto& st = *ctx_.st;
    const double now = ctx_.sim().now();
    st.reduce_time = std::max(st.reduce_time, now - t0);
    if (ctx_.tr != nullptr) {
      ctx_.tr->complete(
          ctx_.runner_track, "reduce", "phase", t0, now,
          {obs::arg("pairs", static_cast<std::uint64_t>(reduce_pairs))});
    }
  }

 private:
  StageContext<K, V>& ctx_;
};

// -- gather stage -------------------------------------------------------------

/// Ships this node's reduced partition to the master and, on the master,
/// merges the gathered partitions into the final output (shuffle
/// guarantees disjoint keys across nodes).
template <typename K, typename V>
class GatherStage {
 public:
  explicit GatherStage(StageContext<K, V>& ctx) : ctx_(ctx) {}

  simnet::Message pack(std::map<K, V>&& reduced) {
    const auto& spec = ctx_.spec();
    auto payload = std::make_shared<std::map<K, V>>(std::move(reduced));
    const double bytes =
        static_cast<double>(payload->size()) * spec.pair_bytes;
    return simnet::Message{bytes, std::move(payload)};
  }

  void unpack_on_master(std::vector<simnet::Message>& gathered) {
    auto& st = *ctx_.st;
    const auto& spec = ctx_.spec();
    using MapPayload = std::shared_ptr<std::map<K, V>>;
    for (auto& m : gathered) {
      if (!m.has_payload()) continue;
      for (auto& [k, v] : *m.template payload_as<MapPayload>()) {
        st.final_output.emplace(
            k, spec.finalize ? spec.finalize(k, std::move(v))
                             : std::move(v));
      }
    }
  }

  void finish(double t0) {
    auto& st = *ctx_.st;
    const double now = ctx_.sim().now();
    st.gather_time = std::max(st.gather_time, now - t0);
    if (ctx_.tr != nullptr) {
      ctx_.tr->complete(ctx_.runner_track, "gather", "phase", t0, now);
    }
  }

 private:
  StageContext<K, V>& ctx_;
};

// -- run accounting -----------------------------------------------------------

/// Cluster-wide counter snapshot; run_job diffs two of these so a job's
/// stats are its own even when the simulator clock keeps running across
/// jobs (iterative drivers).
struct ClusterCounters {
  double cpu_busy = 0.0, gpu_busy = 0.0;
  double cpu_flops = 0.0, gpu_flops = 0.0;
  double pcie = 0.0, net = 0.0;
  std::vector<double> node_cpu_busy, node_gpu_busy;
};

inline ClusterCounters snapshot_counters(Cluster& cluster) {
  ClusterCounters c;
  c.cpu_busy = cluster.total_cpu_busy();
  c.gpu_busy = cluster.total_gpu_busy();
  c.cpu_flops = cluster.total_cpu_flops();
  c.gpu_flops = cluster.total_gpu_flops();
  c.pcie = cluster.total_pcie_bytes();
  c.net = cluster.fabric().bytes_sent();
  for (int r = 0; r < cluster.size(); ++r) {
    c.node_cpu_busy.push_back(cluster.node(r).cpu_busy());
    c.node_gpu_busy.push_back(cluster.node(r).gpu_busy());
  }
  return c;
}

/// Stats of one job: cluster counters since `c0` plus the per-job state.
template <typename K, typename V>
JobStats collect_stats(Cluster& cluster, const ClusterCounters& c0,
                       const JobState<K, V>& st, double elapsed) {
  JobStats s;
  s.elapsed = elapsed;
  s.cpu_busy = cluster.total_cpu_busy() - c0.cpu_busy;
  s.gpu_busy = cluster.total_gpu_busy() - c0.gpu_busy;
  s.cpu_flops = cluster.total_cpu_flops() - c0.cpu_flops;
  s.gpu_flops = cluster.total_gpu_flops() - c0.gpu_flops;
  s.pcie_bytes = cluster.total_pcie_bytes() - c0.pcie;
  s.network_bytes = cluster.fabric().bytes_sent() - c0.net;
  s.map_tasks = st.map_tasks;
  s.reduce_tasks = st.reduce_tasks;
  s.intermediate_pairs = st.intermediate_pairs;
  s.startup_time = st.startup_time;
  s.map_time = st.map_time;
  s.shuffle_time = st.shuffle_time;
  s.reduce_time = st.reduce_time;
  s.gather_time = st.gather_time;
  return s;
}

/// Per-node observed busy times since `c0`, for SchedulePolicy::observe().
inline JobFeedback collect_feedback(Cluster& cluster,
                                    const ClusterCounters& c0,
                                    const std::vector<double>& cpu_fraction,
                                    double elapsed) {
  JobFeedback fb;
  fb.elapsed = elapsed;
  for (int r = 0; r < cluster.size(); ++r) {
    const auto rk = static_cast<std::size_t>(r);
    NodeFeedback nf;
    nf.rank = r;
    nf.cpu_fraction = cpu_fraction[rk];
    nf.cpu_busy = cluster.node(r).cpu_busy() - c0.node_cpu_busy[rk];
    nf.gpu_busy = cluster.node(r).gpu_busy() - c0.node_gpu_busy[rk];
    nf.cpu_cores = cluster.node(r).cpu().cores();
    nf.gpu_cards = cluster.node(r).gpu_count();
    fb.nodes.push_back(nf);
  }
  return fb;
}

/// Job-level metrics counters (no-op when tracing is disabled).
template <typename K, typename V>
void record_job_metrics(sim::Simulator& sim, const JobState<K, V>& st,
                        double elapsed) {
  obs::TraceRecorder* tr = sim.tracer();
  if (tr == nullptr || !tr->enabled()) return;
  auto& m = tr->metrics();
  m.counter("job.runs").increment();
  m.counter("job.map_tasks").add(static_cast<double>(st.map_tasks));
  m.counter("job.reduce_tasks").add(static_cast<double>(st.reduce_tasks));
  m.counter("job.intermediate_pairs")
      .add(static_cast<double>(st.intermediate_pairs));
  m.counter("job.virtual_seconds").add(elapsed);
}

}  // namespace detail
}  // namespace prs::core
