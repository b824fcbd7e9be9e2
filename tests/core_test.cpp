// Tests for the PRS core runtime: input slicing, the two-level scheduler,
// the full map/combine/shuffle/reduce/gather pipeline on simulated clusters,
// scheduling modes, backend selection, and the iterative driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "core/cluster.hpp"
#include "core/iterative.hpp"
#include "core/job_runner.hpp"

namespace prs::core {
namespace {

// -- InputSlice -----------------------------------------------------------------

TEST(InputSlice, SplitAtFraction) {
  InputSlice s{0, 100};
  auto [head, tail] = s.split_at_fraction(0.25);
  EXPECT_EQ(head.begin, 0u);
  EXPECT_EQ(head.end, 25u);
  EXPECT_EQ(tail.begin, 25u);
  EXPECT_EQ(tail.end, 100u);
  auto [all, none] = s.split_at_fraction(1.0);
  EXPECT_EQ(all.size(), 100u);
  EXPECT_TRUE(none.empty());
  EXPECT_THROW(s.split_at_fraction(1.5), InvalidArgument);
}

TEST(InputSlice, SplitRoundsToItems) {
  InputSlice s{10, 13};  // 3 items
  auto [head, tail] = s.split_at_fraction(0.5);
  EXPECT_EQ(head.size() + tail.size(), 3u);
  EXPECT_EQ(head.end, tail.begin);
}

TEST(InputSlice, BlocksCoverExactlyWithoutEmpties) {
  InputSlice s{5, 27};  // 22 items
  for (std::size_t n : {1u, 2u, 3u, 7u, 22u, 50u}) {
    auto bs = s.blocks(n);
    EXPECT_EQ(bs.size(), std::min<std::size_t>(n, 22));
    std::size_t cursor = 5;
    for (const auto& b : bs) {
      EXPECT_EQ(b.begin, cursor);
      EXPECT_FALSE(b.empty());
      cursor = b.end;
    }
    EXPECT_EQ(cursor, 27u);
  }
}

TEST(InputSlice, BlocksOfFixedSize) {
  InputSlice s{0, 10};
  auto bs = s.blocks_of(3);
  ASSERT_EQ(bs.size(), 4u);
  EXPECT_EQ(bs[3].size(), 1u);
  EXPECT_THROW(s.blocks_of(0), InvalidArgument);
}

TEST(InputSlice, EmptySliceHasNoBlocks) {
  InputSlice s{4, 4};
  EXPECT_TRUE(s.blocks(3).empty());
  EXPECT_TRUE(s.blocks_of(2).empty());
}

// -- toy job -----------------------------------------------------------------

/// Toy SPMD app: item i emits (i % kKeys, 1); the reduced output counts
/// items per residue class — exact, order-independent ground truth.
constexpr int kKeys = 5;

MapReduceSpec<int, long> toy_spec(double ai = 50.0, bool cached = false) {
  MapReduceSpec<int, long> spec;
  spec.name = "toy-count";
  spec.cpu_map = [](const InputSlice& s, Emitter<int, long>& e) {
    // Pre-aggregate per task (like the paper's combiner-style mappers):
    // at most kKeys pairs per map task regardless of slice size.
    long counts[kKeys] = {};
    for (std::size_t i = s.begin; i < s.end; ++i) counts[i % kKeys]++;
    for (int k = 0; k < kKeys; ++k) {
      if (counts[k] > 0) e.emit(k, counts[k]);
    }
  };
  spec.combine = [](const long& a, const long& b) { return a + b; };
  spec.cpu_flops_per_item = 100.0;
  spec.gpu_flops_per_item = 100.0;
  spec.ai_cpu = ai;
  spec.ai_gpu = ai;
  spec.gpu_data_cached = cached;
  spec.item_bytes = 8.0;
  spec.pair_bytes = 16.0;
  return spec;
}

std::map<int, long> expected_counts(std::size_t n) {
  std::map<int, long> out;
  for (std::size_t i = 0; i < n; ++i) out[static_cast<int>(i % kKeys)]++;
  return out;
}

TEST(RunJob, SingleNodeProducesExactCounts) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec();
  auto res = run_job(cluster, spec, JobConfig{}, 1000);
  EXPECT_EQ(res.output, expected_counts(1000));
  EXPECT_GT(res.stats.elapsed, 0.0);
}

TEST(RunJob, MultiNodeClustersAgreeWithGroundTruth) {
  for (int nodes : {2, 3, 4, 8}) {
    sim::Simulator simu;
    Cluster cluster(simu, nodes, NodeConfig{});
    auto spec = toy_spec();
    auto res = run_job(cluster, spec, JobConfig{}, 3000);
    EXPECT_EQ(res.output, expected_counts(3000)) << nodes << " nodes";
  }
}

TEST(RunJob, DynamicSchedulingSameResultsAsStatic) {
  sim::Simulator simu;
  Cluster cluster(simu, 3, NodeConfig{});
  auto spec = toy_spec();
  JobConfig stat;
  stat.scheduling = SchedulingMode::kStatic;
  JobConfig dyn;
  dyn.scheduling = SchedulingMode::kDynamic;
  auto r1 = run_job(cluster, spec, stat, 2000);
  auto r2 = run_job(cluster, spec, dyn, 2000);
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_EQ(r1.output, expected_counts(2000));
  EXPECT_GT(r2.stats.map_tasks, 0u);
}

TEST(RunJob, CpuOnlyLeavesGpuIdle) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec();
  JobConfig cfg;
  cfg.use_gpu = false;
  auto res = run_job(cluster, spec, cfg, 1000);
  EXPECT_EQ(res.output, expected_counts(1000));
  EXPECT_DOUBLE_EQ(res.stats.gpu_flops, 0.0);
  EXPECT_GT(res.stats.cpu_flops, 0.0);
}

TEST(RunJob, GpuOnlyLeavesCpuIdle) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec();
  JobConfig cfg;
  cfg.use_cpu = false;
  auto res = run_job(cluster, spec, cfg, 1000);
  EXPECT_EQ(res.output, expected_counts(1000));
  EXPECT_DOUBLE_EQ(res.stats.cpu_flops, 0.0);
  EXPECT_GT(res.stats.gpu_flops, 0.0);
}

TEST(RunJob, RejectsNoBackendsAndEmptyInput) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec();
  JobConfig cfg;
  cfg.use_cpu = false;
  cfg.use_gpu = false;
  EXPECT_THROW(run_job(cluster, spec, cfg, 100), InvalidArgument);
  EXPECT_THROW(run_job(cluster, spec, JobConfig{}, 0), InvalidArgument);
}

TEST(RunJob, MapFlopsAccountedOnDevices) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec();
  auto res = run_job(cluster, spec, JobConfig{}, 4000);
  const double map_flops = 4000 * 100.0;
  // Total device flops = map flops + small reduce-stage flops.
  EXPECT_GE(res.stats.total_flops(), map_flops);
  EXPECT_LT(res.stats.total_flops(), map_flops * 1.05);
}

TEST(RunJob, FractionOverrideShiftsWork) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec();
  JobConfig mostly_cpu;
  mostly_cpu.cpu_fraction_override = 0.9;
  JobConfig mostly_gpu;
  mostly_gpu.cpu_fraction_override = 0.1;
  auto r1 = run_job(cluster, spec, mostly_cpu, 10000);
  auto r2 = run_job(cluster, spec, mostly_gpu, 10000);
  EXPECT_GT(r1.stats.cpu_flops, r2.stats.cpu_flops);
  EXPECT_LT(r1.stats.gpu_flops, r2.stats.gpu_flops);
  EXPECT_EQ(r1.output, r2.output);
  // The shares match the override within block-rounding tolerance.
  EXPECT_NEAR(r1.stats.cpu_flops / (10000 * 100.0), 0.9, 0.02);
}

TEST(RunJob, AnalyticFractionAppliedByDefault) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec(/*ai=*/500.0, /*cached=*/true);
  const double p = cluster.scheduler()
                       .workload_split(500.0, /*staged=*/false)
                       .cpu_fraction;
  auto res = run_job(cluster, spec, JobConfig{}, 20000);
  EXPECT_NEAR(res.stats.cpu_flops / (20000 * 100.0), p, 0.02);
}

TEST(RunJob, InputDistributionCostsNetworkTime) {
  auto elapsed_with = [&](bool distribute) {
    sim::Simulator simu;
    Cluster cluster(simu, 4, NodeConfig{});
    auto spec = toy_spec();
    spec.item_bytes = 1e6;  // make staging expensive
    JobConfig cfg;
    cfg.time_input_distribution = distribute;
    auto res = run_job(cluster, spec, cfg, 1000);
    return std::pair(res.stats.elapsed, res.stats.network_bytes);
  };
  auto [t_no, b_no] = elapsed_with(false);
  auto [t_yes, b_yes] = elapsed_with(true);
  EXPECT_GT(t_yes, t_no);
  EXPECT_GT(b_yes, b_no);
}

TEST(RunJob, CachedGpuDataSkipsPerJobStaging) {
  auto pcie_bytes = [&](bool cached) {
    sim::Simulator simu;
    Cluster cluster(simu, 1, NodeConfig{});
    auto spec = toy_spec(50.0, cached);
    auto res = run_job(cluster, spec, JobConfig{}, 5000);
    return res.stats.pcie_bytes;
  };
  // Uncached jobs stage map input over PCI-E; cached jobs only move the
  // small intermediate/reduce traffic.
  EXPECT_GT(pcie_bytes(false), 4.0 * pcie_bytes(true));
}

TEST(RunJob, DeterministicAcrossRuns) {
  auto one = [] {
    sim::Simulator simu;
    Cluster cluster(simu, 3, NodeConfig{});
    auto spec = toy_spec();
    auto res = run_job(cluster, spec, JobConfig{}, 2500);
    return std::tuple(res.stats.elapsed, res.stats.map_tasks,
                      res.output);
  };
  EXPECT_EQ(one(), one());
}

TEST(RunJob, DisablingLocalCombinerKeepsResultsButCostsNetwork) {
  // The paper's combiner() is optional (Table 1): without it every raw
  // pair is shuffled and the reduce stage does all merging.
  auto run = [](bool combine_locally) {
    sim::Simulator simu;
    Cluster cluster(simu, 4, NodeConfig{});
    auto spec = toy_spec();
    spec.local_combine = combine_locally;
    spec.cpu_map = [](const InputSlice& s, Emitter<int, long>& e) {
      for (std::size_t i = s.begin; i < s.end; ++i) {
        e.emit(static_cast<int>(i % kKeys), 1);  // raw, un-aggregated
      }
    };
    return run_job(cluster, spec, JobConfig{}, 4000);
  };
  auto with = run(true);
  auto without = run(false);
  EXPECT_EQ(with.output, expected_counts(4000));
  EXPECT_EQ(without.output, expected_counts(4000));
  // Raw pairs on the wire: far more network traffic and reduce input.
  EXPECT_GT(without.stats.network_bytes, 5.0 * with.stats.network_bytes);
}

TEST(RunJob, ModeledModeChargesTimeWithoutPayloads) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec();
  JobConfig cfg;
  cfg.mode = ExecutionMode::kModeled;
  auto res = run_job(cluster, spec, cfg, 100000);
  EXPECT_TRUE(res.output.empty());  // no modeled_map given
  EXPECT_GT(res.stats.elapsed, 0.0);
  EXPECT_GT(res.stats.total_flops(), 0.0);  // time still charged
}

TEST(RunJob, ModeledMapPreservesShape) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec();
  spec.modeled_map = [](const InputSlice&, Emitter<int, long>& e) {
    for (int k = 0; k < kKeys; ++k) e.emit(k, 0);
  };
  JobConfig cfg;
  cfg.mode = ExecutionMode::kModeled;
  auto res = run_job(cluster, spec, cfg, 10000);
  EXPECT_EQ(res.output.size(), static_cast<std::size_t>(kKeys));
}

TEST(RunJob, ModeledModeNeverCombines) {
  // Stand-ins carry keys only: neither the local combine nor the reduce
  // merge may call the combiner, and the stats must match a run whose
  // combiner is real.
  auto run = [](bool combine_locally, bool poisoned) {
    sim::Simulator simu;
    Cluster cluster(simu, 3, NodeConfig{});
    auto spec = toy_spec();
    spec.local_combine = combine_locally;
    spec.modeled_map = [](const InputSlice&, Emitter<int, long>& e) {
      for (int k = 0; k < kKeys; ++k) e.emit(k, {});
    };
    if (poisoned) {
      spec.combine = [](const long&, const long&) -> long {
        PRS_CHECK(false, "modeled mode called the combiner");
        return 0;
      };
    }
    JobConfig cfg;
    cfg.mode = ExecutionMode::kModeled;
    return run_job(cluster, spec, cfg, 20000);
  };
  for (const bool combine_locally : {true, false}) {
    const auto poisoned = run(combine_locally, true);
    const auto real = run(combine_locally, false);
    EXPECT_EQ(poisoned.output.size(), static_cast<std::size_t>(kKeys));
    EXPECT_EQ(poisoned.output, real.output);
    EXPECT_GT(poisoned.stats.intermediate_pairs,
              static_cast<std::uint64_t>(kKeys));
    visit_stats_fields2(poisoned.stats, real.stats,
                        [&](const char* name, const auto& a, const auto& b) {
                          EXPECT_EQ(a, b) << name << " (local combine "
                                          << combine_locally << ")";
                        });
  }
}

TEST(RunJob, MoreNodesShortenElapsedTime) {
  auto elapsed = [](int nodes) {
    sim::Simulator simu;
    Cluster cluster(simu, nodes, NodeConfig{});
    auto spec = toy_spec();
    JobConfig cfg;
    cfg.charge_job_startup = false;  // isolate the compute scaling
    auto res = run_job(cluster, spec, cfg, 400000);
    return res.stats.elapsed;
  };
  const double t1 = elapsed(1);
  const double t4 = elapsed(4);
  EXPECT_LT(t4, t1);
}

TEST(RunJob, FinalizeTransformsValues) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec();
  spec.finalize = [](const int&, long v) { return v * 10; };
  auto res = run_job(cluster, spec, JobConfig{}, 100);
  auto want = expected_counts(100);
  for (auto& [k, v] : want) v *= 10;
  EXPECT_EQ(res.output, want);
}

// -- iterative driver -----------------------------------------------------------

TEST(Iterative, RunsRequestedIterationsAndStops) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec(500.0, /*cached=*/true);
  int seen = 0;
  auto res = run_iterative<int, long>(
      cluster, spec, JobConfig{}, 1000, 10,
      [&](int iter, const std::map<int, long>& out) {
        EXPECT_EQ(iter, seen);
        EXPECT_EQ(out, expected_counts(1000));
        ++seen;
        return iter < 3;  // stop after 4 iterations
      },
      /*state_bytes=*/1024.0);
  EXPECT_EQ(res.iterations, 4);
  EXPECT_EQ(seen, 4);
  EXPECT_EQ(res.stats.iterations, 4);
}

TEST(Iterative, CachedDataStagedOnceUpFront) {
  sim::Simulator simu;
  Cluster cluster(simu, 2, NodeConfig{});
  auto spec = toy_spec(500.0, /*cached=*/true);
  spec.item_bytes = 1000.0;
  auto res = run_iterative<int, long>(
      cluster, spec, JobConfig{}, 2000, 3,
      [](int, const std::map<int, long>&) { return true; });
  EXPECT_GT(res.staging_time, 0.0);
  // Iteration-phase PCI-E traffic excludes the map input (cached): only
  // intermediate/reduce traffic remains, far below restaging 3x input.
  EXPECT_LT(res.stats.pcie_bytes, 3 * 2000 * 1000.0 * 0.1);
}

TEST(Iterative, CachedDataMustFitGpuMemory) {
  // A C2070 has 6 GB (Table 4): caching a larger invariant data set must
  // fail loudly at staging time, not corrupt the run.
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec(500.0, /*cached=*/true);
  spec.item_bytes = 1e6;  // 1 MB/item x 10k items = 10 GB > 6 GB
  auto run = [&] {
    (void)run_iterative<int, long>(
        cluster, spec, JobConfig{}, 10000, 2,
        [](int, const std::map<int, long>&) { return true; });
  };
  EXPECT_THROW(run(), ResourceExhausted);
}

TEST(Iterative, CachedAllocationsReleasedAfterRun) {
  sim::Simulator simu;
  Cluster cluster(simu, 1, NodeConfig{});
  auto spec = toy_spec(500.0, /*cached=*/true);
  spec.item_bytes = 1000.0;
  (void)run_iterative<int, long>(
      cluster, spec, JobConfig{}, 1000, 2,
      [](int, const std::map<int, long>&) { return true; });
  EXPECT_EQ(cluster.node(0).gpu(0).memory_used(), 0u);
}

TEST(Iterative, StartupChargedOnlyOnFirstIteration) {
  auto elapsed_for_iters = [](int iters) {
    sim::Simulator simu;
    Cluster cluster(simu, 1, NodeConfig{});
    auto spec = toy_spec(500.0, true);
    auto res = run_iterative<int, long>(
        cluster, spec, JobConfig{}, 1000, iters,
        [](int, const std::map<int, long>&) { return true; });
    return res.stats.elapsed;
  };
  const double t1 = elapsed_for_iters(1);
  const double t2 = elapsed_for_iters(2);
  // If startup were charged per iteration, t2 >= 2 * t1. It must be well
  // below that (startup dominates a tiny job).
  EXPECT_LT(t2, 1.5 * t1);
}

}  // namespace
}  // namespace prs::core
