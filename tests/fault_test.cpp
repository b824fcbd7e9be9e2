// Tests for the fault-injection subsystem (prs::fault) and the
// fault-tolerant job path in core: spec-string parsing, byte-reproducible
// fault schedules, output equality under every fault class, crash recovery
// via blacklisting + re-splitting, and straggler speculation.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "common/rng.hpp"

#include "core/cluster.hpp"
#include "core/job_runner.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace prs::core {
namespace {

// -- FaultPlan grammar ------------------------------------------------------

TEST(FaultPlan, ParsesClausesOfEveryKind) {
  auto plan = fault::FaultPlan::parse(
      "gpu_hang:node1:t=2ms; link_drop:node0-node2:p=0.01,"
      "slow_node:node3:x4:gpu; node_crash:*:t=1500us;"
      "link_delay:*:t=1ms:p=0.1; link_dup:node0-*:p=0.02;"
      "task_error:node1:p=0.05");
  ASSERT_EQ(plan.clauses.size(), 7u);
  EXPECT_EQ(plan.clauses[0].kind, fault::FaultKind::kGpuHang);
  EXPECT_EQ(plan.clauses[0].node_a, 1);
  EXPECT_DOUBLE_EQ(plan.clauses[0].at, 2e-3);
  EXPECT_EQ(plan.clauses[1].kind, fault::FaultKind::kLinkDrop);
  EXPECT_EQ(plan.clauses[1].node_a, 0);
  EXPECT_EQ(plan.clauses[1].node_b, 2);
  EXPECT_DOUBLE_EQ(plan.clauses[1].probability, 0.01);
  EXPECT_DOUBLE_EQ(plan.clauses[2].factor, 4.0);
  EXPECT_EQ(plan.clauses[2].device, fault::DeviceFilter::kGpu);
  EXPECT_EQ(plan.clauses[3].node_a, -1);  // wildcard
  EXPECT_DOUBLE_EQ(plan.clauses[3].at, 1.5e-3);
  EXPECT_DOUBLE_EQ(plan.clauses[4].extra_delay, 1e-3);
  EXPECT_EQ(plan.clauses[5].node_a, 0);
  EXPECT_EQ(plan.clauses[5].node_b, -1);
  EXPECT_DOUBLE_EQ(plan.clauses[6].probability, 0.05);
}

TEST(FaultPlan, BlankSpecIsEmptyAndMalformedSpecsThrow) {
  EXPECT_TRUE(fault::FaultPlan::parse("").empty());
  EXPECT_TRUE(fault::FaultPlan::parse("  ;  , ").empty());
  EXPECT_THROW(fault::FaultPlan::parse("bogus:node1"), InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("gpu_hang"), InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("gpu_hang:node1:t=2parsecs"),
               InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("link_drop:node0:p=0.5"),
               InvalidArgument);  // link kinds need a-b targets
  EXPECT_THROW(fault::FaultPlan::parse("task_error:node0:p=1.5"),
               InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("slow_node:node0"), InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("link_delay:*:p=0.1"),
               InvalidArgument);
}

// -- toy job under faults ---------------------------------------------------

/// Item i emits (i % kKeys, i); the reduced output holds per-residue index
/// sums — exact integers, independent of block layout, shuffle bucketing,
/// and merge order, so any silent drop or duplication under faults changes
/// the value.
constexpr int kKeys = 37;

MapReduceSpec<int, long long> sum_spec(double flops_per_item = 2000.0) {
  MapReduceSpec<int, long long> spec;
  spec.name = "fault-sum";
  spec.cpu_map = [](const InputSlice& s, Emitter<int, long long>& e) {
    long long sums[kKeys] = {};
    for (std::size_t i = s.begin; i < s.end; ++i) {
      sums[i % kKeys] += static_cast<long long>(i);
    }
    for (int k = 0; k < kKeys; ++k) {
      if (sums[k] != 0) e.emit(k, sums[k]);
    }
  };
  spec.combine = [](const long long& a, const long long& b) { return a + b; };
  spec.cpu_flops_per_item = flops_per_item;
  spec.gpu_flops_per_item = flops_per_item;
  spec.ai_cpu = 50.0;
  spec.ai_gpu = 50.0;
  spec.item_bytes = 8.0;
  spec.pair_bytes = 16.0;
  return spec;
}

std::map<int, long long> expected_sums(std::size_t n) {
  std::map<int, long long> out;
  for (std::size_t i = 0; i < n; ++i) {
    out[static_cast<int>(i % kKeys)] += static_cast<long long>(i);
  }
  return out;
}

constexpr std::size_t kItems = 20000;
constexpr int kNodes = 4;

/// One tolerant run with everything observable captured for comparison.
struct FaultRun {
  std::map<int, long long> output;
  JobStats stats;
  fault::FaultInjector::Stats injected;
  std::vector<std::string> log;
  std::string trace_json;
};

FaultRun run_with_faults(const std::string& spec_str, std::uint64_t seed,
                         FaultToleranceConfig tol = {},
                         double flops_per_item = 2000.0) {
  // The recorder outlives the simulator: tearing the simulator down
  // destroys the supervisors a crashed node left suspended, and their job
  // spans close on the way out.
  std::optional<obs::TraceRecorder> rec;
  sim::Simulator simu;
  rec.emplace(simu);
  simu.set_tracer(&*rec);
  Cluster cluster(simu, kNodes, NodeConfig{});
  fault::FaultInjector inj(simu, fault::FaultPlan::parse(spec_str), seed);
  auto spec = sum_spec(flops_per_item);
  JobConfig cfg;
  cfg.charge_job_startup = false;  // fault window starts at t=0
  cfg.faults = &inj;
  cfg.tolerance = tol;
  auto res = run_job(cluster, spec, cfg, kItems);
  FaultRun out;
  out.output = std::move(res.output);
  out.stats = res.stats;
  out.injected = inj.stats();
  out.log = inj.log();
  out.trace_json = obs::chrome_trace_string(*rec);
  simu.set_tracer(nullptr);
  return out;
}

std::map<int, long long> run_fault_free() {
  sim::Simulator simu;
  Cluster cluster(simu, kNodes, NodeConfig{});
  auto spec = sum_spec();
  JobConfig cfg;
  cfg.charge_job_startup = false;
  auto res = run_job(cluster, spec, cfg, kItems);
  return res.output;
}

// -- (a) determinism --------------------------------------------------------

TEST(FaultInjector, SameSeedGivesByteIdenticalScheduleAndTrace) {
  const std::string spec =
      "link_drop:*:p=0.05; task_error:node1:p=0.1; slow_node:node2:x2";
  auto a = run_with_faults(spec, 7);
  auto b = run_with_faults(spec, 7);
  EXPECT_EQ(a.log, b.log);
  EXPECT_TRUE(a.injected == b.injected);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.output, b.output);
  EXPECT_DOUBLE_EQ(a.stats.elapsed, b.stats.elapsed);
  EXPECT_EQ(a.stats.task_retries, b.stats.task_retries);
  EXPECT_EQ(a.stats.retransmits, b.stats.retransmits);
  // A different seed draws a different probabilistic schedule.
  auto c = run_with_faults(spec, 8);
  EXPECT_NE(a.log, c.log);
  // But the computed result is still exact.
  EXPECT_EQ(a.output, expected_sums(kItems));
  EXPECT_EQ(c.output, expected_sums(kItems));
}

// -- (b) output equality per fault class ------------------------------------

TEST(FaultTolerance, OutputMatchesFaultFreeUnderEachFaultClass) {
  const auto want = run_fault_free();
  ASSERT_EQ(want, expected_sums(kItems));
  for (const char* spec :
       {"gpu_hang:node1:t=0ms", "link_drop:*:p=0.2", "slow_node:node3:x4",
        "task_error:*:p=0.1", "link_delay:*:t=200us:p=0.5",
        "link_dup:*:p=0.2"}) {
    auto got = run_with_faults(spec, 3);
    EXPECT_EQ(got.output, want) << "under " << spec;
  }
}

TEST(FaultTolerance, GraphEngineWithFaultsRoutesToTolerantPathUnchanged) {
  // An attached fault injector always wins the routing decision in
  // run_job: the tolerant runner (timeouts, retries, speculation) takes
  // over from the task graph. Its faulted timeline, injector log and trace
  // are pinned from before the task graph became the fault-free runner.
  const std::string spec = "link_drop:*:p=0.1; task_error:node1:p=0.1";
  auto got = run_with_faults(spec, 11);
  EXPECT_EQ(got.output, expected_sums(kItems));
  EXPECT_DOUBLE_EQ(got.stats.elapsed, 0.0025537007323688976);
  EXPECT_EQ(got.stats.task_retries, 11u);
  EXPECT_EQ(got.stats.retransmits, 8u);
  EXPECT_EQ(got.log.size(), 20u);
  EXPECT_EQ(got.trace_json.size(), 78894u);
  EXPECT_EQ(ckpt::fnv1a64(got.trace_json), 0x085081ad0f02249eull);
}

/// One tolerant-path configuration of the pin table below.
struct TolerantPin {
  const char* plan;
  const char* policy;
  int backend;  // 0 = cpu+gpu, 1 = use_gpu=false, 2 = use_cpu=false
  int gpus;
  double elapsed;
  std::uint64_t retries;
  std::uint64_t map_tasks;
  std::uint64_t reduce_tasks;
  int blacklisted;
  std::uint64_t trace_fnv;
};

FaultRun run_tolerant_case(const TolerantPin& c) {
  std::optional<obs::TraceRecorder> rec;  // outlives simu, as above
  sim::Simulator simu;
  rec.emplace(simu);
  simu.set_tracer(&*rec);
  NodeConfig node;
  node.gpus_per_node = c.gpus;
  Cluster cluster(simu, kNodes, node);
  fault::FaultInjector inj(simu, fault::FaultPlan::parse(c.plan), 11);
  auto policy = make_policy(c.policy);
  auto spec = sum_spec();
  JobConfig cfg;
  cfg.charge_job_startup = false;
  cfg.time_input_distribution = true;
  cfg.use_gpu = c.backend != 1;
  cfg.use_cpu = c.backend != 2;
  cfg.policy = policy.get();
  cfg.faults = &inj;
  auto res = run_job(cluster, spec, cfg, kItems);
  FaultRun out;
  out.output = std::move(res.output);
  out.stats = res.stats;
  out.trace_json = obs::chrome_trace_string(*rec);
  simu.set_tracer(nullptr);
  return out;
}

TEST(FaultTolerance, TolerantPathTableIsPinned) {
  // Four fault plans x {static, dynamic, adaptive} x {cpu+gpu, cpu only,
  // gpu only} x {1, 2} GPUs per node, all with timed input distribution.
  // Every observable of the tolerant runner is pinned, so a change to the
  // shared stage code that forks the fault path shows up here.
  static const TolerantPin kPins[] = {
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "static", 0, 1, 0.014595514437576314, 11u, 403u, 8u, 0, 0x3607ad6e2facd2f3ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "static", 0, 2, 0.0146202669671739, 11u, 411u, 12u, 0, 0xab66e81e5276ea18ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "static", 1, 1, 0.014230824615384621, 9u, 393u, 4u, 0, 0x247deacf25aa28caull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "static", 1, 2, 0.014230824615384621, 9u, 393u, 4u, 0, 0x247deacf25aa28caull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "static", 2, 1, 0.0068347638234774917, 0u, 8u, 4u, 0, 0x814cd09661bed981ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "static", 2, 2, 0.0059843324571932904, 1u, 17u, 8u, 0, 0x925bdcbcad3ae7b8ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "dynamic", 0, 1, 0.014655053151677736, 10u, 435u, 8u, 0, 0xf875ff39cddcc676ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "dynamic", 0, 2, 0.014542862980480976, 14u, 438u, 12u, 0, 0x96c441077b7c8d23ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "dynamic", 1, 1, 0.014491501538461541, 11u, 435u, 4u, 0, 0x138b8431b8871152ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "dynamic", 1, 2, 0.014491501538461541, 11u, 435u, 4u, 0, 0x138b8431b8871152ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "dynamic", 2, 1, 0.0095671808402471321, 46u, 506u, 4u, 0, 0x8e9664750d82fd9full},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "dynamic", 2, 2, 0.015178695203883496, 12u, 438u, 8u, 0, 0x87120c11087d7665ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "adaptive", 0, 1, 0.014595514437576314, 11u, 403u, 8u, 0, 0x3607ad6e2facd2f3ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "adaptive", 0, 2, 0.0146202669671739, 11u, 411u, 12u, 0, 0xab66e81e5276ea18ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "adaptive", 1, 1, 0.014230824615384621, 9u, 393u, 4u, 0, 0x247deacf25aa28caull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "adaptive", 1, 2, 0.014230824615384621, 9u, 393u, 4u, 0, 0x247deacf25aa28caull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "adaptive", 2, 1, 0.0068347638234774917, 0u, 8u, 4u, 0, 0x814cd09661bed981ull},
    {"link_drop:*:p=0.1; task_error:node1:p=0.1", "adaptive", 2, 2, 0.0059843324571932904, 1u, 17u, 8u, 0, 0x925bdcbcad3ae7b8ull},
    {"node_crash:node2:t=0", "static", 0, 1, 1.7257338998508442, 0u, 294u, 6u, 1, 0x9b3cf677477a2e94ull},
    {"node_crash:node2:t=0", "static", 0, 2, 1.7257527328665574, 0u, 300u, 9u, 1, 0x3abbfbb472d38794ull},
    {"node_crash:node2:t=0", "static", 1, 1, 1.7256861630769236, 0u, 288u, 3u, 1, 0x1428f96efb47aeb4ull},
    {"node_crash:node2:t=0", "static", 1, 2, 1.7256861630769236, 0u, 288u, 3u, 1, 0x1428f96efb47aeb4ull},
    {"node_crash:node2:t=0", "static", 2, 1, 1.7252711766954996, 0u, 6u, 3u, 1, 0xade773d39d9a8372ull},
    {"node_crash:node2:t=0", "static", 2, 2, 1.7252813668932052, 0u, 12u, 6u, 1, 0xb88f986291895034ull},
    {"node_crash:node2:t=0", "dynamic", 0, 1, 1.7261138600545238, 0u, 318u, 6u, 1, 0xa63526e9ff8b5d76ull},
    {"node_crash:node2:t=0", "dynamic", 0, 2, 1.7260475755496991, 0u, 318u, 9u, 1, 0x50351970857586c7ull},
    {"node_crash:node2:t=0", "dynamic", 1, 1, 1.7257439169230773, 0u, 318u, 3u, 1, 0xa7efaa64e30e2f30ull},
    {"node_crash:node2:t=0", "dynamic", 1, 2, 1.7257439169230773, 0u, 318u, 3u, 1, 0xa7efaa64e30e2f30ull},
    {"node_crash:node2:t=0", "dynamic", 2, 1, 1.7278275130414855, 54u, 372u, 3u, 1, 0x3b3c188678ce0664ull},
    {"node_crash:node2:t=0", "dynamic", 2, 2, 1.7264173872639026, 0u, 318u, 6u, 1, 0x04a18f69feb28362ull},
    {"node_crash:node2:t=0", "adaptive", 0, 1, 1.7257338998508442, 0u, 294u, 6u, 1, 0x9b3cf677477a2e94ull},
    {"node_crash:node2:t=0", "adaptive", 0, 2, 1.7257527328665574, 0u, 300u, 9u, 1, 0x3abbfbb472d38794ull},
    {"node_crash:node2:t=0", "adaptive", 1, 1, 1.7256861630769236, 0u, 288u, 3u, 1, 0x1428f96efb47aeb4ull},
    {"node_crash:node2:t=0", "adaptive", 1, 2, 1.7256861630769236, 0u, 288u, 3u, 1, 0x1428f96efb47aeb4ull},
    {"node_crash:node2:t=0", "adaptive", 2, 1, 1.7252711766954996, 0u, 6u, 3u, 1, 0xade773d39d9a8372ull},
    {"node_crash:node2:t=0", "adaptive", 2, 2, 1.7252813668932052, 0u, 12u, 6u, 1, 0xb88f986291895034ull},
    {"gpu_hang:node1:t=0ms", "static", 0, 1, 0.0039809466605472193, 2u, 395u, 9u, 0, 0x84e598c8acd3fd19ull},
    {"gpu_hang:node1:t=0ms", "static", 0, 2, 0.0040054749924095315, 3u, 406u, 13u, 0, 0x2a6b0d38c2018a01ull},
    {"gpu_hang:node1:t=0ms", "static", 1, 1, 0.0029661366153846151, 0u, 384u, 4u, 0, 0x97ee8a4be44ec14eull},
    {"gpu_hang:node1:t=0ms", "static", 1, 2, 0.0029661366153846151, 0u, 384u, 4u, 0, 0x97ee8a4be44ec14eull},
    {"gpu_hang:node1:t=0ms", "static", 2, 1, 0.01295315688261253, 6u, 6u, 3u, 1, 0x88f346e1a025e7c9ull},
    {"gpu_hang:node1:t=0ms", "static", 2, 2, 0.012977905350397173, 12u, 12u, 6u, 1, 0xc20d3ebd63a2be2aull},
    {"gpu_hang:node1:t=0ms", "dynamic", 0, 1, 0.0043659938979699886, 17u, 459u, 9u, 0, 0xd64b200cc2cc8ddbull},
    {"gpu_hang:node1:t=0ms", "dynamic", 0, 2, 0.0043002410647837563, 25u, 483u, 13u, 0, 0x64d90d23115be1aaull},
    {"gpu_hang:node1:t=0ms", "dynamic", 1, 1, 0.0030218596923076929, 0u, 424u, 4u, 0, 0xa76c75c9761b41b9ull},
    {"gpu_hang:node1:t=0ms", "dynamic", 1, 2, 0.0030218596923076929, 0u, 424u, 4u, 0, 0xa76c75c9761b41b9ull},
    {"gpu_hang:node1:t=0ms", "dynamic", 2, 1, 0.032963479036187349, 372u, 372u, 3u, 1, 0x01fe0c2515587025ull},
    {"gpu_hang:node1:t=0ms", "dynamic", 2, 2, 0.019618842261253325, 318u, 318u, 6u, 1, 0x92339cbffdce4f51ull},
    {"gpu_hang:node1:t=0ms", "adaptive", 0, 1, 0.0039809466605472193, 2u, 395u, 9u, 0, 0x84e598c8acd3fd19ull},
    {"gpu_hang:node1:t=0ms", "adaptive", 0, 2, 0.0040054749924095315, 3u, 406u, 13u, 0, 0x2a6b0d38c2018a01ull},
    {"gpu_hang:node1:t=0ms", "adaptive", 1, 1, 0.0029661366153846151, 0u, 384u, 4u, 0, 0x97ee8a4be44ec14eull},
    {"gpu_hang:node1:t=0ms", "adaptive", 1, 2, 0.0029661366153846151, 0u, 384u, 4u, 0, 0x97ee8a4be44ec14eull},
    {"gpu_hang:node1:t=0ms", "adaptive", 2, 1, 0.01295315688261253, 6u, 6u, 3u, 1, 0x88f346e1a025e7c9ull},
    {"gpu_hang:node1:t=0ms", "adaptive", 2, 2, 0.012977905350397173, 12u, 12u, 6u, 1, 0xc20d3ebd63a2be2aull},
    {"slow_node:node0:x6:cpu", "static", 0, 1, 0.0030192367323688971, 0u, 392u, 8u, 0, 0xcaf41a9632a229f6ull},
    {"slow_node:node0:x6:cpu", "static", 0, 2, 0.0030436941163354174, 0u, 400u, 12u, 0, 0xf3e92269eed63389ull},
    {"slow_node:node0:x6:cpu", "static", 1, 1, 0.0029661366153846151, 0u, 384u, 4u, 0, 0x1c2d310b8dd92fc0ull},
    {"slow_node:node0:x6:cpu", "static", 1, 2, 0.0029661366153846151, 0u, 384u, 4u, 0, 0x1c2d310b8dd92fc0ull},
    {"slow_node:node0:x6:cpu", "static", 2, 1, 0.0025562038234774932, 0u, 8u, 4u, 0, 0xeaafc3cf2e1d5fedull},
    {"slow_node:node0:x6:cpu", "static", 2, 2, 0.0025702364571932911, 0u, 16u, 8u, 0, 0x1d08a7b905093e4eull},
    {"slow_node:node0:x6:cpu", "dynamic", 0, 1, 0.0034042839697916659, 0u, 424u, 8u, 0, 0xbe432c7bf4de3f09ull},
    {"slow_node:node0:x6:cpu", "dynamic", 0, 2, 0.0033384601887096427, 0u, 424u, 12u, 0, 0x597a8cfae67d90deull},
    {"slow_node:node0:x6:cpu", "dynamic", 1, 1, 0.0030218596923076929, 0u, 424u, 4u, 0, 0xd9e8c512f30490f7ull},
    {"slow_node:node0:x6:cpu", "dynamic", 1, 2, 0.0030218596923076929, 0u, 424u, 4u, 0, 0xd9e8c512f30490f7ull},
    {"slow_node:node0:x6:cpu", "dynamic", 2, 1, 0.0051024013521623933, 36u, 496u, 4u, 0, 0x520f6b89abf63708ull},
    {"slow_node:node0:x6:cpu", "dynamic", 2, 2, 0.0037061894315975228, 0u, 424u, 8u, 0, 0x28094c06b19094f3ull},
    {"slow_node:node0:x6:cpu", "adaptive", 0, 1, 0.0030192367323688971, 0u, 392u, 8u, 0, 0xcaf41a9632a229f6ull},
    {"slow_node:node0:x6:cpu", "adaptive", 0, 2, 0.0030436941163354174, 0u, 400u, 12u, 0, 0xf3e92269eed63389ull},
    {"slow_node:node0:x6:cpu", "adaptive", 1, 1, 0.0029661366153846151, 0u, 384u, 4u, 0, 0x1c2d310b8dd92fc0ull},
    {"slow_node:node0:x6:cpu", "adaptive", 1, 2, 0.0029661366153846151, 0u, 384u, 4u, 0, 0x1c2d310b8dd92fc0ull},
    {"slow_node:node0:x6:cpu", "adaptive", 2, 1, 0.0025562038234774932, 0u, 8u, 4u, 0, 0xeaafc3cf2e1d5fedull},
    {"slow_node:node0:x6:cpu", "adaptive", 2, 2, 0.0025702364571932911, 0u, 16u, 8u, 0, 0x1d08a7b905093e4eull},
  };
  ASSERT_EQ(std::size(kPins), 72u);
  for (const TolerantPin& want : kPins) {
    SCOPED_TRACE(std::string(want.plan) + " policy=" + want.policy +
                 " backend=" + std::to_string(want.backend) +
                 " gpus=" + std::to_string(want.gpus));
    const FaultRun got = run_tolerant_case(want);
    EXPECT_EQ(got.output, expected_sums(kItems));
    EXPECT_DOUBLE_EQ(got.stats.elapsed, want.elapsed);
    EXPECT_EQ(got.stats.task_retries, want.retries);
    EXPECT_EQ(got.stats.map_tasks, want.map_tasks);
    EXPECT_EQ(got.stats.reduce_tasks, want.reduce_tasks);
    EXPECT_EQ(got.stats.blacklisted_nodes, want.blacklisted);
    EXPECT_EQ(ckpt::fnv1a64(got.trace_json), want.trace_fnv);
  }
}

TEST(FaultTolerance, DroppedMessagesAreRetransmitted) {
  auto got = run_with_faults("link_drop:*:p=0.2", 3);
  EXPECT_GT(got.injected.drops, 0u);
  EXPECT_GE(got.stats.retransmits, got.injected.drops);
  EXPECT_EQ(got.output, expected_sums(kItems));
}

TEST(FaultTolerance, GpuHangRetriesOntoTheCpu) {
  auto got = run_with_faults("gpu_hang:node1:t=0ms", 3);
  EXPECT_GT(got.injected.hangs, 0u);
  EXPECT_GT(got.stats.task_retries, 0u);
  EXPECT_EQ(got.stats.blacklisted_nodes, 0);  // hang tolerated in place
  EXPECT_EQ(got.output, expected_sums(kItems));
}

TEST(FaultTolerance, TransientTaskErrorsAreRetried) {
  auto got = run_with_faults("task_error:*:p=0.1", 3);
  EXPECT_GT(got.injected.task_errors, 0u);
  EXPECT_GT(got.stats.task_retries, 0u);
  EXPECT_EQ(got.output, expected_sums(kItems));
}

TEST(FaultTolerance, EmptyPlanOnTolerantPathStaysClean) {
  auto got = run_with_faults("", 1);
  EXPECT_EQ(got.output, expected_sums(kItems));
  EXPECT_EQ(got.stats.task_retries, 0u);
  EXPECT_EQ(got.stats.retransmits, 0u);
  EXPECT_EQ(got.stats.blacklisted_nodes, 0);
  EXPECT_EQ(got.stats.job_attempts, 1);
  EXPECT_TRUE(got.log.empty());
}

// -- (c) crash recovery -----------------------------------------------------

TEST(FaultTolerance, CrashedNodeIsBlacklistedAndWorkResplitsAcrossSurvivors) {
  const auto want = run_fault_free();
  auto got = run_with_faults("node_crash:node2:t=0", 5);
  EXPECT_EQ(got.output, want);
  EXPECT_EQ(got.stats.blacklisted_nodes, 1);
  EXPECT_EQ(got.stats.job_attempts, 2);
  EXPECT_GT(got.stats.task_retries, 0u);  // the crashed node's hung attempts
  EXPECT_GT(got.stats.elapsed, 0.0);
}

TEST(FaultTolerance, TwoCrashedNodesStillRecoverable) {
  auto got = run_with_faults("node_crash:node1:t=0; node_crash:node3:t=0", 5);
  EXPECT_EQ(got.output, expected_sums(kItems));
  EXPECT_EQ(got.stats.blacklisted_nodes, 2);
  EXPECT_GE(got.stats.job_attempts, 2);
}

// -- (d) straggler speculation ----------------------------------------------

TEST(FaultTolerance, StragglerSpeculationWinsAndDuplicatesAreDiscarded) {
  // node0's CPU runs 6x slower — below the 8x timeout factor, so its tasks
  // never time out; they can only be beaten by speculative re-execution on
  // the GPU. The fast GPU blocks establish the duration median; the slowed
  // CPU blocks exceed straggler_factor x median, the watchdog launches
  // backups, the backups win, and the late CPU originals are discarded as
  // double completions.
  FaultToleranceConfig tol;
  tol.straggler_tick = 50e-6;
  tol.straggler_min_completed = 2;
  tol.straggler_factor = 2.0;
  auto got = run_with_faults("slow_node:node0:x6:cpu", 11, tol,
                             /*flops_per_item=*/20000.0);
  EXPECT_GT(got.injected.slowdowns, 0u);
  EXPECT_GE(got.stats.speculations, 1u);
  EXPECT_GE(got.stats.speculative_wins, 1u);
  EXPECT_GE(got.stats.double_completions, 1u);
  // First-result-wins must not change the reduced values.
  EXPECT_EQ(got.output, expected_sums(kItems));
  EXPECT_EQ(got.stats.blacklisted_nodes, 0);
}

// -- (e) fault-spec grammar fuzzing -----------------------------------------

std::string format_exact17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Builds a random spec clause that the grammar documents as valid.
std::string random_valid_clause(Rng& rng) {
  static const char* kDeviceKinds[] = {"gpu_hang", "node_crash", "slow_node",
                                       "task_error"};
  static const char* kLinkKinds[] = {"link_drop", "link_delay", "link_dup"};
  static const char* kSuffixes[] = {"", "s", "ms", "us", "ns"};

  const bool link = rng.uniform() < 0.4;
  std::string kind = link ? kLinkKinds[rng.uniform_index(3)]
                          : kDeviceKinds[rng.uniform_index(4)];
  std::string clause = kind + ":";
  auto node = [&] {
    return rng.uniform() < 0.2
               ? std::string("*")
               : "node" + std::to_string(rng.uniform_index(64));
  };
  if (link) {
    clause += rng.uniform() < 0.25 ? "*" : node() + "-" + node();
  } else {
    clause += node();
  }
  if (kind == "slow_node") {
    clause += ":x" + format_exact17(rng.uniform(1.5, 16.0));
  }
  if (kind == "link_delay") {
    clause += ":t=" + format_exact17(rng.uniform(1e-6, 1e-2)) + "s";
  } else if (rng.uniform() < 0.5) {
    clause += ":t=" + format_exact17(rng.uniform(0.0, 10.0)) +
              kSuffixes[rng.uniform_index(5)];
  }
  if (rng.uniform() < 0.5) {
    clause += ":p=" + format_exact17(rng.uniform());
  }
  if (!link && rng.uniform() < 0.3) {
    clause += rng.uniform() < 0.5 ? ":cpu" : ":gpu";
  }
  return clause;
}

TEST(FaultPlanFuzz, GeneratedValidSpecsParseAndRoundTripThroughToSpec) {
  Rng rng(0xfa11);
  for (int i = 0; i < 100; ++i) {
    std::string spec = random_valid_clause(rng);
    const std::size_t extra = rng.uniform_index(3);
    for (std::size_t c = 0; c < extra; ++c) {
      spec += (rng.uniform() < 0.5 ? ";" : ",") + random_valid_clause(rng);
    }
    SCOPED_TRACE(spec);
    fault::FaultPlan plan;
    ASSERT_NO_THROW(plan = fault::FaultPlan::parse(spec));
    ASSERT_FALSE(plan.empty());
    // The canonical spelling reparses to the same clauses, doubles exact.
    const std::string canonical = plan.to_spec();
    const fault::FaultPlan back = fault::FaultPlan::parse(canonical);
    EXPECT_EQ(back.clauses, plan.clauses);
    EXPECT_EQ(back.to_spec(), canonical);
  }
}

TEST(FaultPlanFuzz, MutatedSpecsEitherParseOrThrowPrsErrorsOnly) {
  Rng rng(0xbadf00d);
  std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789:;,.*-=_ xXtTpPeE+\t\n";
  charset.push_back('\0');   // embedded NUL
  charset.push_back('\x7f');
  charset.push_back('\xff');
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    std::string spec = random_valid_clause(rng);
    const int mutations = 1 + static_cast<int>(rng.uniform_index(4));
    for (int m = 0; m < mutations; ++m) {
      if (spec.empty()) break;
      const std::size_t pos = rng.uniform_index(spec.size());
      const char c = charset[rng.uniform_index(charset.size())];
      switch (rng.uniform_index(3)) {
        case 0:
          spec[pos] = c;
          break;
        case 1:
          spec.insert(pos, 1, c);
          break;
        default:
          spec.erase(pos, 1);
          break;
      }
    }
    SCOPED_TRACE(spec);
    try {
      fault::FaultPlan::parse(spec);
      ++parsed;
    } catch (const prs::Error&) {
      ++rejected;  // the only acceptable failure mode
    }
    // Anything else (std::out_of_range from stoi/stod, bad_alloc from a
    // bogus length, segfault) escapes and fails the test.
  }
  // The mutator must actually exercise both sides of the parser.
  EXPECT_GT(parsed, 5);
  EXPECT_GT(rejected, 5);
}

TEST(FaultPlanFuzz, OverflowingNumbersAreRejectedAsInvalidArgument) {
  EXPECT_THROW(
      fault::FaultPlan::parse("node_crash:node99999999999999999999"),
      InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("slow_node:node0:x1e999"),
               InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("gpu_hang:node1:t=1e999s"),
               InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("task_error:node1:p=1e999"),
               InvalidArgument);
  EXPECT_THROW(fault::FaultPlan::parse("link_delay:*:t=1e-999999s"),
               InvalidArgument);
}

TEST(FaultPlanFuzz, ToSpecOfParsedSpecIsAFixedPoint) {
  const char* specs[] = {
      "gpu_hang:node1:t=2ms; link_drop:node0-node2:p=0.01,"
      "slow_node:node3:x4:gpu; node_crash:*:t=1500us",
      "link_delay:*:t=1ms:p=0.1; link_dup:node0-*:p=0.02",
      "task_error:node1:p=0.05",
  };
  for (const char* s : specs) {
    const auto plan = fault::FaultPlan::parse(s);
    const std::string canonical = plan.to_spec();
    const auto back = fault::FaultPlan::parse(canonical);
    EXPECT_EQ(back.clauses, plan.clauses) << s;
    EXPECT_EQ(back.to_spec(), canonical) << s;
  }
}

}  // namespace
}  // namespace prs::core
