// The fault-free execution path of the PRS runner: every job without a
// fault injector runs as one TaskGraph.
//
// One graph instance expresses a whole job: the per-node spine
// start -> map -> merge -> shuffle -> reduce -> gather, with the stage
// objects from core/pipeline.hpp acting as graph builders. The scheduling
// policy only changes the map section:
//   * static dispatch (Eq (8) split): per partition, one dispatch node
//     charging the serial enqueue cost, then one node per planned CPU/GPU
//     block (MapStage::plan_static). A block node's work is its device
//     future — no process, no promise.
//   * dynamic dispatch (§III.B block polling): one node per partition
//     whose work is MapStage::start_dynamic; partition nodes chain
//     serially, like the daemon's polling rounds.
//
// Two copy-back shapes:
//   * depth 1 (faithful): GPU intermediates copied back in bulk after the
//     map barrier (MapStage::copy_back).
//   * depth >= 2 (overlap, static dispatch only): each GPU block gets its
//     own D2H node on the card's dedicated copy stream, dependent only on
//     that block's kernel; on devices with more than one hardware queue
//     the copy-back engine runs beside the remaining compute (Fermi-class
//     1-queue devices serialize either way and lose nothing).
//
// Failure semantics: a functional map payload that throws records its
// graph node in the GraphExecutor (cancelling every not-yet-dispatched
// node) and rethrows — the error surfaces out of sim.run() at the failing
// block's completion time, before the stage barrier, wrapped with the
// graph-node name.
//
// NOTE (GCC 12): all co_await sites follow the named-temporary rule
// documented in simtime/process.hpp.
#pragma once

#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "graph/executor.hpp"
#include "graph/task_graph.hpp"

namespace prs::core {
namespace detail {

/// Tag stride between pipelined iterations so concurrent windows' shuffle /
/// gather / broadcast collectives never collide (simnet's own collective
/// phase stride is 1<<24; user tags stay well below it).
inline constexpr int kGraphIterTagStride = 1024;

inline constexpr int kStateBroadcastTag = 400;

/// Runs a functional block payload. A throw is recorded against the
/// block's graph node `node` in `exec` (first failure wins; every
/// not-yet-dispatched node is cancelled) before it propagates out of the
/// device worker, so the failure surfaces at the block's completion time.
template <typename Body>
void run_recording_failure(graph::GraphExecutor& exec, graph::NodeId node,
                           const Body& body) {
  try {
    body();
  } catch (...) {
    exec.fail(std::current_exception(), node);
    throw;
  }
}

/// One map block scheduled through the graph: its input slice, its graph
/// node (named in failure reports), and for GPU blocks the planned (card,
/// stream). `emitter` is bound when the block's node runs and read by the
/// per-block D2H node (the kernel has produced its pairs by then).
template <typename K, typename V>
struct GraphBlock {
  InputSlice slice;
  graph::NodeId node = graph::kNoNode;
  bool gpu = false;
  int card = 0;
  int stream = 0;
  Emitter<K, V>* emitter = nullptr;
};

/// Per-rank execution state of one graph job: the stage objects plus the
/// transient values the stage nodes hand to each other.
template <typename K, typename V>
struct GraphRankState {
  StageContext<K, V> ctx;
  std::optional<MapStage<K, V>> map;
  std::optional<ShuffleStage<K, V>> shuffle;
  std::optional<ReduceStage<K, V>> reduce;
  std::optional<GatherStage<K, V>> gather;
  graph::GraphExecutor* exec = nullptr;
  int tag_base = 0;
  double phase_t0 = 0.0;
  double map_t0 = 0.0;
  std::size_t node_items = 0;
  std::vector<GraphBlock<K, V>> blocks;  // static map blocks, CPU and GPU
  std::vector<simnet::Message> inbound;
  std::map<K, V> reduced;
  std::size_t reduce_pairs = 0;
};

/// One job's worth of graph state; `rank_done` holds each rank's gather
/// node so callers (the pipelined iteration window) can hang successor
/// iterations off them.
template <typename K, typename V>
struct GraphJob {
  std::shared_ptr<JobState<K, V>> st;
  std::vector<std::unique_ptr<GraphRankState<K, V>>> ranks;
  std::vector<graph::NodeId> rank_done;
};

/// Every rank of the cluster, ascending: the alive set of a fault-free job.
inline std::vector<int> all_ranks(const Cluster& cluster) {
  std::vector<int> ranks(static_cast<std::size_t>(cluster.size()));
  std::iota(ranks.begin(), ranks.end(), 0);
  return ranks;
}

// -- graph node work ----------------------------------------------------------
// Multi-step nodes are free coroutine functions taking their context by
// pointer: the graph stores plain forwarding lambdas, so no coroutine frame
// ever references a lambda object (the classic captured-lambda-coroutine
// lifetime bug). Single-step nodes return their device future directly.

template <typename K, typename V>
sim::Process g_startup(GraphRankState<K, V>* rs,
                       sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  auto& st = *rs->ctx.st;
  const JobConfig& cfg = st.cfg;
  rs->phase_t0 = sim.now();
  if (cfg.charge_job_startup) {
    auto d = sim::delay(sim, calib::kPrsJobStartup);
    co_await d;
  }
  const int nodes = rs->ctx.cluster->size();
  const auto& spec = rs->ctx.spec();
  auto& comm = rs->ctx.cluster->fabric().comm(rs->ctx.rank);
  if (cfg.time_input_distribution && nodes > 1) {
    if (rs->ctx.rank == 0) {
      for (int dst = 1; dst < nodes; ++dst) {
        std::size_t dst_items = 0;
        for (const auto& p :
             st.node_partitions[static_cast<std::size_t>(dst)]) {
          dst_items += p.size();
        }
        simnet::Message m{static_cast<double>(dst_items) * spec.item_bytes,
                          {}};
        comm.send(dst, kDistributeTag + rs->tag_base, std::move(m));
      }
    } else {
      auto r = comm.recv(0, kDistributeTag + rs->tag_base);
      (void)co_await r;
    }
  }
  st.startup_time = std::max(st.startup_time, sim.now() - rs->phase_t0);
  if (rs->ctx.tr != nullptr && sim.now() > rs->phase_t0) {
    rs->ctx.tr->complete(rs->ctx.runner_track, "startup", "phase",
                         rs->phase_t0, sim.now());
  }
  rs->map_t0 = sim.now();
  done.set_value(sim::Unit{});
}

/// Static dispatch round of one partition: the sub-task scheduler's
/// iteration overhead plus the serial enqueue cost of its blocks.
template <typename K, typename V>
sim::Process g_dispatch(GraphRankState<K, V>* rs,
                        sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  auto d1 = sim::delay(sim, calib::kPrsIterationOverhead);
  co_await d1;
  auto d2 = sim::delay(sim, rs->map->static_dispatch_cost());
  co_await d2;
  done.set_value(sim::Unit{});
}

/// Dynamic round of one partition: fixed-size blocks polled by idle
/// device daemons until the partition drains.
template <typename K, typename V>
sim::Process g_dynamic_partition(GraphRankState<K, V>* rs,
                                 std::size_t partition,
                                 sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  auto d = sim::delay(sim, calib::kPrsIterationOverhead);
  co_await d;
  auto drained = rs->map->start_dynamic(
      rs->ctx.st->node_partitions[rs->ctx.rk()][partition]);
  co_await drained;
  done.set_value(sim::Unit{});
}

/// Runs one static block's map payload (a throw fails the block's node).
template <typename K, typename V>
void g_map_payload(GraphRankState<K, V>* rs, GraphBlock<K, V>* blk) {
  auto body = [rs, blk] {
    map_payload(*rs->ctx.st, blk->gpu)(blk->slice, *blk->emitter);
  };
  run_recording_failure(*rs->exec, blk->node, body);
  if (blk->gpu) rs->map->batch().gpu_pairs += blk->emitter->size();
}

/// Static map block: a CPU task, or (staging copy +) kernel on the planned
/// (card, stream). The stream is an in-order queue, so the kernel's future
/// covers the staging copy too.
template <typename K, typename V>
sim::Future<sim::Unit> g_map_block(GraphRankState<K, V>* rs,
                                   std::size_t slot) {
  auto& st = *rs->ctx.st;
  const auto& spec = rs->ctx.spec();
  NodeMapBatch<K, V>& batch = rs->map->batch();
  GraphBlock<K, V>* blk = &rs->blocks[slot];
  batch.emitters.emplace_back();
  blk->emitter = &batch.emitters.back();
  ++st.map_tasks;
  const bool payload = static_cast<bool>(map_payload(st, blk->gpu));
  if (!blk->gpu) {
    simdev::CpuTask t = cpu_map_task(spec, blk->slice);
    if (payload) t.body = [rs, blk] { g_map_payload(rs, blk); };
    return rs->ctx.node().cpu().submit(std::move(t));
  }
  simdev::Stream& stream = rs->ctx.node().gpu(blk->card).stream(blk->stream);
  if (!spec.gpu_data_cached) {
    stream.memcpy_h2d(static_cast<double>(blk->slice.size()) *
                      spec.item_bytes);
  }
  simdev::KernelDesc k = gpu_map_kernel(spec, blk->slice);
  if (payload) k.body = [rs, blk] { g_map_payload(rs, blk); };
  batch.gpu_items += blk->slice.size();
  return stream.launch(std::move(k));
}

/// Overlap mode: one D2H copy per GPU block, on the card's dedicated copy
/// stream (index = the compute stream count), dependent only on its own
/// kernel — PCI-E copy-back runs beside the remaining compute instead of
/// waiting for the stage barrier.
template <typename K, typename V>
sim::Future<sim::Unit> g_block_d2h(GraphRankState<K, V>* rs,
                                   std::size_t slot) {
  const auto& spec = rs->ctx.spec();
  const GraphBlock<K, V>& blk = rs->blocks[slot];
  const double bytes =
      static_cast<double>(blk.emitter->size()) * spec.pair_bytes +
      static_cast<double>(blk.slice.size()) * spec.gpu_item_d2h_bytes;
  if (bytes <= 0.0) return sim::make_ready_future(rs->ctx.sim());
  const int copy_stream = rs->ctx.st->gpu_streams[rs->ctx.rk()];
  return rs->ctx.node().gpu(blk.card).stream(copy_stream).memcpy_d2h(bytes);
}

/// Map-stage epilogue. In faithful mode this is the bulk copy-back after
/// the map barrier; in overlap mode the per-block D2H nodes already moved
/// the bytes and only the host merge remains.
template <typename K, typename V>
sim::Process g_merge(GraphRankState<K, V>* rs, bool bulk_copy_back,
                     sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  if (bulk_copy_back) {
    auto d2h = rs->map->copy_back();
    co_await d2h;
  }
  auto d = sim::delay(sim, rs->map->host_merge_cost(rs->node_items));
  co_await d;
  rs->map->finish(rs->map_t0, rs->node_items);
  done.set_value(sim::Unit{});
}

template <typename K, typename V>
sim::Process g_shuffle(GraphRankState<K, V>* rs,
                       sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  auto& comm = rs->ctx.cluster->fabric().comm(rs->ctx.rank);
  auto outbound = rs->shuffle->prepare(
      rs->map->batch(), static_cast<std::size_t>(rs->ctx.cluster->size()));
  const double t0 = sim.now();
  auto a2a = comm.all_to_all(std::move(outbound),
                             kShuffleTag + rs->tag_base);
  rs->inbound = co_await a2a;
  rs->shuffle->finish(t0);
  done.set_value(sim::Unit{});
}

template <typename K, typename V>
sim::Process g_reduce(GraphRankState<K, V>* rs,
                      sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  const double t0 = sim.now();
  rs->reduced = rs->reduce->merge(rs->inbound, rs->reduce_pairs);
  rs->inbound.clear();
  auto futs = rs->reduce->submit_device_tasks(rs->reduce_pairs);
  auto all = sim::when_all(sim, futs);
  co_await all;
  rs->reduce->finish(t0, rs->reduce_pairs);
  done.set_value(sim::Unit{});
}

template <typename K, typename V>
sim::Process g_gather(GraphRankState<K, V>* rs,
                      sim::Promise<sim::Unit> done) {
  auto& sim = rs->ctx.sim();
  auto& comm = rs->ctx.cluster->fabric().comm(rs->ctx.rank);
  const double t0 = sim.now();
  simnet::Message mine = rs->gather->pack(std::move(rs->reduced));
  auto g = comm.gather(0, std::move(mine), kGatherTag + rs->tag_base);
  std::vector<simnet::Message> gathered = co_await g;
  if (rs->ctx.rank == 0) rs->gather->unpack_on_master(gathered);
  rs->gather->finish(t0);
  if (rs->ctx.tr != nullptr) {
    rs->ctx.tr->complete(rs->ctx.runner_track,
                         rs->ctx.spec().name + ":job", "job", rs->phase_t0,
                         sim.now());
  }
  // Region-based memory: all of this job's intermediates go at once.
  rs->ctx.node().region().clear();
  ++rs->ctx.st->nodes_done;
  done.set_value(sim::Unit{});
}

/// Per-iteration state broadcast inside a pipelined window — the graph-node
/// form of detail::broadcast_state, with a per-iteration tag.
inline sim::Process g_state_broadcast(Cluster* cluster, int rank,
                                      double state_bytes, int tag,
                                      sim::Promise<sim::Unit> done) {
  auto& comm = cluster->fabric().comm(rank);
  simnet::Message mine =
      rank == 0 ? simnet::Message{state_bytes, true} : simnet::Message{};
  auto b = comm.broadcast(0, std::move(mine), tag);
  (void)co_await b;
  done.set_value(sim::Unit{});
}

// -- graph builder ------------------------------------------------------------

/// Builds one whole job into `g`, which `exec` will run (payload failures
/// are recorded there): the per-rank stage spine with the map section the
/// policy's dispatch mode asks for. `after_per_rank` (when
/// non-empty) gates each rank's start node on an upstream node — the hook
/// the pipelined iteration window uses to chain iterations. `name_prefix`
/// namespaces node names (e.g. "i3:") so windowed graphs stay readable.
template <typename K, typename V>
void build_job_graph(graph::TaskGraph& g, GraphJob<K, V>& job,
                     Cluster& cluster, SchedulePolicy* policy,
                     graph::GraphExecutor* exec, bool overlap, int tag_base,
                     const std::vector<graph::NodeId>& after_per_rank,
                     const std::string& name_prefix) {
  auto& sim = cluster.simulator();
  JobState<K, V>* st = job.st.get();
  obs::TraceRecorder* tr = sim.tracer();
  if (tr != nullptr && !tr->enabled()) tr = nullptr;
  const int nodes = cluster.size();
  const bool dynamic = policy->dispatch() == SchedulingMode::kDynamic;
  job.rank_done.assign(static_cast<std::size_t>(nodes), graph::kNoNode);

  for (int r = 0; r < nodes; ++r) {
    const auto rk = static_cast<std::size_t>(r);
    job.ranks.push_back(std::make_unique<GraphRankState<K, V>>());
    GraphRankState<K, V>* rs = job.ranks.back().get();
    rs->ctx.cluster = &cluster;
    rs->ctx.st = st;
    rs->ctx.policy = policy;
    rs->ctx.rank = r;
    rs->exec = exec;
    rs->tag_base = tag_base;
    if (tr != nullptr) {
      rs->ctx.tr = tr;
      rs->ctx.runner_track =
          tr->track("node" + std::to_string(r), "runner");
      // The level-2 decision this node runs with: Eq (8)'s CPU share p,
      // Eqs (9)-(11)'s stream count, and the block granularities.
      tr->instant(
          rs->ctx.runner_track, "sched.decision", "sched",
          {obs::arg("p", st->cpu_fraction[rk]),
           obs::arg("gpu_streams", st->gpu_streams[rk]),
           obs::arg("partitions", static_cast<std::uint64_t>(
                                      st->node_partitions[rk].size())),
           obs::arg("cpu_blocks",
                    roofline::AnalyticScheduler::cpu_block_count(
                        rs->ctx.node().cpu().cores())),
           obs::arg("mode", policy->name())});
    }
    rs->map.emplace(rs->ctx);
    rs->shuffle.emplace(rs->ctx);
    rs->reduce.emplace(rs->ctx);
    rs->gather.emplace(rs->ctx);
    for (const auto& p : st->node_partitions[rk]) rs->node_items += p.size();

    const std::string rp = name_prefix + "n" + std::to_string(r) + ":";
    const graph::NodeId start = g.add_work(
        rp + "start", "delay", r, [rs](sim::Simulator& s) {
          return graph::spawn_work(s, [rs](sim::Promise<sim::Unit> done) {
            return g_startup<K, V>(rs, std::move(done));
          });
        });
    if (!after_per_rank.empty()) g.depend(start, after_per_rank[rk]);

    // Partition rounds chain serially (the daemon thread handles one
    // partition before moving to the next). A static partition's blocks
    // do NOT gate the next round; a dynamic round drains before the next.
    std::vector<graph::NodeId> tails;  // everything the merge waits on
    graph::NodeId prev_round = start;
    const auto& partitions = st->node_partitions[rk];
    for (std::size_t pi = 0, round = 0; pi < partitions.size(); ++pi) {
      if (partitions[pi].empty()) continue;
      const std::string pp = rp + "p" + std::to_string(round++) + ":";
      if (dynamic) {
        const graph::NodeId part = g.add_work(
            pp + "map:dynamic", "cpu", r, [rs, pi](sim::Simulator& s) {
              return graph::spawn_work(
                  s, [rs, pi](sim::Promise<sim::Unit> done) {
                    return g_dynamic_partition<K, V>(rs, pi, std::move(done));
                  });
            });
        g.depend(part, prev_round);
        prev_round = part;
        continue;
      }
      const graph::NodeId disp = g.add_work(
          pp + "dispatch", "delay", r, [rs](sim::Simulator& s) {
            return graph::spawn_work(s, [rs](sim::Promise<sim::Unit> done) {
              return g_dispatch<K, V>(rs, std::move(done));
            });
          });
      g.depend(disp, prev_round);
      prev_round = disp;

      const auto plan = rs->map->plan_static(partitions[pi]);
      // One node per block, named "<pp>map:cpu<i>" / "<pp>map:gpu<i>",
      // built in one buffer (block nodes dominate graph construction).
      auto add_block = [&](GraphBlock<K, V> blk, std::size_t bi) {
        std::string name;
        name.reserve(pp.size() + 16);
        name.append(pp).append(blk.gpu ? "map:gpu" : "map:cpu");
        name.append(std::to_string(bi));
        const std::size_t slot = rs->blocks.size();
        rs->blocks.push_back(blk);
        const graph::NodeId n = g.add_work(
            std::move(name), blk.gpu ? "kernel" : "cpu", r,
            [rs, slot](sim::Simulator&) { return g_map_block(rs, slot); });
        rs->blocks[slot].node = n;
        g.depend(n, disp);
        if (blk.gpu && overlap) {
          const graph::NodeId d2h = g.add_work(
              g.node(n).name + ":d2h", "d2h", r,
              [rs, slot](sim::Simulator&) { return g_block_d2h(rs, slot); });
          g.depend(d2h, n);
          tails.push_back(d2h);
        } else {
          tails.push_back(n);
        }
      };
      for (std::size_t bi = 0; bi < plan.cpu_blocks.size(); ++bi) {
        GraphBlock<K, V> blk;
        blk.slice = plan.cpu_blocks[bi];
        add_block(blk, bi);
      }
      for (std::size_t bi = 0; bi < plan.gpu_blocks.size(); ++bi) {
        GraphBlock<K, V> blk;
        blk.slice = plan.gpu_blocks[bi].slice;
        blk.gpu = true;
        blk.card = plan.gpu_blocks[bi].card;
        blk.stream = plan.gpu_blocks[bi].stream;
        add_block(blk, bi);
      }
    }

    const bool bulk = !overlap;
    const graph::NodeId merge = g.add_work(
        rp + "merge", overlap ? "host" : "d2h", r,
        [rs, bulk](sim::Simulator& s) {
          return graph::spawn_work(
              s, [rs, bulk](sim::Promise<sim::Unit> done) {
                return g_merge<K, V>(rs, bulk, std::move(done));
              });
        });
    g.depend(merge, prev_round);  // empty-partition ranks still merge
    g.depend_all(merge, tails);

    const graph::NodeId shuffle = g.add_work(
        rp + "shuffle", "net", r, [rs](sim::Simulator& s) {
          return graph::spawn_work(s, [rs](sim::Promise<sim::Unit> done) {
            return g_shuffle<K, V>(rs, std::move(done));
          });
        });
    g.depend(shuffle, merge);

    const graph::NodeId reduce = g.add_work(
        rp + "reduce", "cpu", r, [rs](sim::Simulator& s) {
          return graph::spawn_work(s, [rs](sim::Promise<sim::Unit> done) {
            return g_reduce<K, V>(rs, std::move(done));
          });
        });
    g.depend(reduce, shuffle);

    const graph::NodeId gather = g.add_work(
        rp + "gather", "net", r, [rs](sim::Simulator& s) {
          return graph::spawn_work(s, [rs](sim::Promise<sim::Unit> done) {
            return g_gather<K, V>(rs, std::move(done));
          });
        });
    g.depend(gather, reduce);
    job.rank_done[rk] = gather;
  }
}

/// Writes the DOT rendering of `g` to `path` (--graph-dump).
inline void write_graph_dot(const graph::TaskGraph& g,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open graph dump file: " + path);
  out << g.to_dot();
  if (!out) throw Error("failed writing graph dump file: " + path);
}

/// Executes the graph `exec` was made for to completion. A node failure
/// resurfaces as an Error naming the failing node ("task graph node
/// '<name>' failed: ...").
inline void execute_graph(sim::Simulator& sim, graph::GraphExecutor& exec) {
  auto named = [&exec](const std::exception& e) {
    return Error("task graph node '" + exec.failure_site() +
                 "' failed: " + e.what());
  };
  exec.start();
  try {
    sim.run();
  } catch (const Error&) {
    throw;  // already carries context (or is a runtime invariant)
  } catch (const std::exception& e) {
    if (exec.failed()) throw named(e);
    throw;
  }
  if (exec.failed()) {
    try {
      exec.rethrow_if_failed();
    } catch (const std::exception& e) {
      throw named(e);
    }
  }
  PRS_CHECK(exec.done(), "job graph drained with unfinished nodes");
}

/// Runs one fault-free job as a task graph and drives the simulator until
/// it completes.
template <typename K, typename V>
JobResult<K, V> run_job_graph(Cluster& cluster,
                              const MapReduceSpec<K, V>& spec,
                              const JobConfig& cfg, std::size_t n_items,
                              SchedulePolicy* policy) {
  auto& sim = cluster.simulator();
  GraphJob<K, V> job;
  job.st = make_job_state(cluster, spec, cfg, n_items, policy,
                          all_ranks(cluster));
  graph::TaskGraph g(spec.name + ":job");
  graph::GraphExecutor exec(sim, g);
  const bool overlap = cfg.pipeline_depth > 1 &&
                       policy->dispatch() == SchedulingMode::kStatic;
  build_job_graph(g, job, cluster, policy, &exec, overlap, /*tag_base=*/0,
                  {}, "");
  if (!cfg.graph_dump_path.empty()) {
    write_graph_dot(g, cfg.graph_dump_path);
  }

  const double t0 = sim.now();
  const ClusterCounters counters0 = snapshot_counters(cluster);
  execute_graph(sim, exec);
  PRS_CHECK(job.st->nodes_done == cluster.size(),
            "job finished with missing nodes");

  JobResult<K, V> result;
  result.output = std::move(job.st->final_output);
  result.stats =
      collect_stats(cluster, counters0, *job.st, sim.now() - t0);
  // Feed observed per-node busy times back so stateful policies (adaptive)
  // can refine their split for the next job/iteration.
  policy->observe(collect_feedback(cluster, counters0,
                                   job.st->cpu_fraction,
                                   result.stats.elapsed));
  record_job_metrics(sim, *job.st, result.stats.elapsed);
  return result;
}

// -- pipelined iteration window -----------------------------------------------

/// Shared convergence state of one pipelined window (written by the
/// per-iteration advance host nodes, in iteration order).
template <typename K, typename V>
struct GraphWindow {
  bool finished = false;   // on_iteration said stop (or max reached)
  int completed = 0;       // counted iterations (overrun excluded)
  std::map<K, V> last_output;  // master output of the last counted one
};

/// Result of one window: the last counted iteration's output, window-total
/// stats (one counter diff over the whole window — overrun work included,
/// since those cycles really were spent), and how far the run advanced.
template <typename K, typename V>
struct WindowResult {
  JobResult<K, V> last;
  int completed = 0;
  bool finished = false;
};

/// Runs `window` iterations of an iterative job as ONE task graph
/// (JobConfig::pipeline_depth > 1): iteration j+1's per-rank spine hangs
/// off iteration j's advance node — the host node that applies
/// `on_iteration` to the master's gathered output. Iterative state updates
/// are globally synchronized (broadcast from the master), so the
/// cross-iteration edges keep the numeric trajectory byte-identical to
/// depth 1; the throughput win comes from the per-block D2H overlap inside
/// each iteration and from dispatching iteration j+1's startup without
/// returning to the host driver.
///
/// No node is ever cancelled mid-window: a converged run lets the
/// already-built successor iterations drain (their collectives are wired
/// into the graph; cancelling one rank's node would deadlock its peers)
/// and simply ignores their updates — the overrun is bounded by the window
/// size and visible in the stats.
template <typename K, typename V>
WindowResult<K, V> run_job_window(
    Cluster& cluster, const MapReduceSpec<K, V>& spec, const JobConfig& cfg,
    std::size_t n_items, SchedulePolicy* policy, int first_iter, int window,
    int max_iterations, double state_bytes,
    const std::function<bool(int, const std::map<K, V>&)>& on_iteration) {
  PRS_REQUIRE(window >= 1, "window needs at least one iteration");
  auto& sim = cluster.simulator();
  const int nodes = cluster.size();
  graph::TaskGraph g(spec.name + ":window@" + std::to_string(first_iter));
  graph::GraphExecutor exec(sim, g);
  auto win = std::make_shared<GraphWindow<K, V>>();
  std::vector<GraphJob<K, V>> jobs;
  jobs.reserve(static_cast<std::size_t>(window));
  const std::vector<int> ranks = all_ranks(cluster);

  graph::NodeId prev_advance = graph::kNoNode;
  for (int j = 0; j < window; ++j) {
    const int it = first_iter + j;
    const std::string prefix = "i" + std::to_string(it) + ":";
    const int tag_base = j * kGraphIterTagStride;
    jobs.emplace_back();
    GraphJob<K, V>& job = jobs.back();
    job.st = make_job_state(cluster, spec, cfg, n_items, policy, ranks);
    job.st->cfg.charge_job_startup = cfg.charge_job_startup && it == 0;

    // The evolving state reaches the workers before their maps run: each
    // rank's spine hangs off its broadcast node (or directly off the
    // previous advance when there is nothing to broadcast).
    std::vector<graph::NodeId> after;
    if (state_bytes > 0.0 && nodes > 1) {
      after.resize(static_cast<std::size_t>(nodes), graph::kNoNode);
      for (int r = 0; r < nodes; ++r) {
        const int tag = kStateBroadcastTag + tag_base;
        const graph::NodeId bc = g.add_work(
            prefix + "n" + std::to_string(r) + ":state-bcast", "net", r,
            [cl = &cluster, r, state_bytes, tag](sim::Simulator& s) {
              return graph::spawn_work(
                  s, [cl, r, state_bytes, tag](sim::Promise<sim::Unit> done) {
                    return g_state_broadcast(cl, r, state_bytes, tag,
                                             std::move(done));
                  });
            });
        g.depend(bc, prev_advance);
        after[static_cast<std::size_t>(r)] = bc;
      }
    } else if (prev_advance != graph::kNoNode) {
      after.assign(static_cast<std::size_t>(nodes), prev_advance);
    }
    build_job_graph(g, job, cluster, policy, &exec, /*overlap=*/true,
                    tag_base, after, prefix);

    const graph::NodeId advance = g.add_host(
        prefix + "advance", "host", 0,
        [win, st = job.st, on_iteration, it, max_iterations] {
          if (win->finished) return;  // overrun: update ignored
          win->last_output = std::move(st->final_output);
          ++win->completed;
          const bool cont = on_iteration(it, win->last_output);
          win->finished = !cont || it + 1 >= max_iterations;
        });
    for (const graph::NodeId d : job.rank_done) g.depend(advance, d);
    prev_advance = advance;
  }
  if (!cfg.graph_dump_path.empty()) {
    write_graph_dot(g, cfg.graph_dump_path);
  }

  const double t0 = sim.now();
  const ClusterCounters counters0 = snapshot_counters(cluster);
  execute_graph(sim, exec);
  for (const auto& job : jobs) {
    PRS_CHECK(job.st->nodes_done == nodes,
              "window iteration finished with missing nodes");
  }
  PRS_CHECK(win->completed >= 1, "window completed no iterations");

  WindowResult<K, V> out;
  out.completed = win->completed;
  out.finished = win->finished;
  out.last.output = std::move(win->last_output);
  // One counter diff covers the window; the per-iteration JobState fields
  // (task counts, phase times) are summed across every iteration that ran.
  JobStats ws = collect_stats(cluster, counters0, *jobs.back().st,
                              sim.now() - t0);
  for (std::size_t j = 0; j + 1 < jobs.size(); ++j) {
    const JobState<K, V>& st = *jobs[j].st;
    ws.map_tasks += st.map_tasks;
    ws.reduce_tasks += st.reduce_tasks;
    ws.intermediate_pairs += st.intermediate_pairs;
    ws.startup_time += st.startup_time;
    ws.map_time += st.map_time;
    ws.shuffle_time += st.shuffle_time;
    ws.reduce_time += st.reduce_time;
    ws.gather_time += st.gather_time;
  }
  ws.iterations = win->completed;
  out.last.stats = ws;
  policy->observe(collect_feedback(cluster, counters0,
                                   jobs.back().st->cpu_fraction, ws.elapsed));
  record_job_metrics(sim, *jobs.back().st, ws.elapsed);
  return out;
}

}  // namespace detail
}  // namespace prs::core
