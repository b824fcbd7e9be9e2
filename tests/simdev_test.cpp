// Unit tests for the device models: spec factories, workload algebra, the
// region allocator, GPU streams/copy/kernel timing, the CPU core pool, and
// the deferred functional payloads of in-flight tasks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "simdev/cpu_device.hpp"
#include "simdev/device_spec.hpp"
#include "simdev/gpu_device.hpp"
#include "simdev/region.hpp"
#include "simdev/workload.hpp"
#include "simtime/process.hpp"

namespace prs::simdev {
namespace {

using sim::Simulator;
using units::kGiB;

// -- DeviceSpec ----------------------------------------------------------------

TEST(DeviceSpec, FactoriesMatchTable4) {
  const DeviceSpec cpu = delta_cpu();
  EXPECT_EQ(cpu.kind, DeviceKind::kCpu);
  EXPECT_EQ(cpu.cores, 12);
  EXPECT_EQ(cpu.memory_bytes, 192 * kGiB);

  const DeviceSpec gpu = delta_c2070();
  EXPECT_EQ(gpu.kind, DeviceKind::kGpu);
  EXPECT_EQ(gpu.cores, 448);
  EXPECT_EQ(gpu.memory_bytes, 6 * kGiB);
  EXPECT_EQ(gpu.hardware_queues, 1);  // Fermi

  const DeviceSpec k20 = bigred2_k20();
  EXPECT_EQ(k20.cores, 2496);
  EXPECT_GT(k20.hardware_queues, 1);  // Kepler Hyper-Q

  const DeviceSpec br2 = bigred2_cpu();
  EXPECT_EQ(br2.cores, 32);
}

TEST(DeviceSpec, RidgePointIsPeakOverBandwidth) {
  DeviceSpec s = delta_cpu();
  EXPECT_DOUBLE_EQ(s.ridge_point(), s.peak_flops / s.dram_bandwidth);
  // Calibration sanity: Delta CPU ridge ~3.25 flops/byte, so GEMV (AI=2)
  // sits below it — the regime Table 5 exercises.
  EXPECT_NEAR(s.ridge_point(), 3.25, 0.01);
}

// -- Workload ------------------------------------------------------------------

TEST(Workload, ArithmeticIntensity) {
  Workload w{1000.0, 0.0, 0.0, 500.0};
  EXPECT_DOUBLE_EQ(w.arithmetic_intensity(), 2.0);
  Workload zero;
  EXPECT_THROW(zero.arithmetic_intensity(), InvalidArgument);
}

TEST(Workload, ScaledSplitsProportionally) {
  Workload w{100.0, 10.0, 4.0, 50.0};
  Workload h = w.scaled(0.25);
  EXPECT_DOUBLE_EQ(h.flops, 25.0);
  EXPECT_DOUBLE_EQ(h.bytes_in, 2.5);
  EXPECT_DOUBLE_EQ(h.bytes_out, 1.0);
  EXPECT_DOUBLE_EQ(h.mem_traffic, 12.5);
  EXPECT_THROW(w.scaled(-0.1), InvalidArgument);
}

TEST(Workload, AdditionAccumulates) {
  Workload a{1, 2, 3, 4}, b{10, 20, 30, 40};
  Workload c = a + b;
  EXPECT_DOUBLE_EQ(c.flops, 11);
  EXPECT_DOUBLE_EQ(c.bytes_in, 22);
  EXPECT_DOUBLE_EQ(c.bytes_out, 33);
  EXPECT_DOUBLE_EQ(c.mem_traffic, 44);
}

// -- Region allocator -----------------------------------------------------------

TEST(Region, AllocatesDistinctAlignedBlocks) {
  Region r(1024);
  void* a = r.allocate(100);
  void* b = r.allocate(100);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % alignof(std::max_align_t), 0u);
  std::memset(a, 0xAB, 100);
  std::memset(b, 0xCD, 100);
  EXPECT_EQ(static_cast<unsigned char*>(a)[99], 0xAB);
  EXPECT_EQ(static_cast<unsigned char*>(b)[0], 0xCD);
}

TEST(Region, CustomAlignmentRespected) {
  Region r;
  (void)r.allocate(3);
  void* p = r.allocate(64, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
  EXPECT_THROW(r.allocate(8, 3), InvalidArgument);  // not a power of two
}

TEST(Region, GrowsBeyondInitialChunk) {
  Region r(128);
  for (int i = 0; i < 100; ++i) (void)r.allocate(64);
  EXPECT_GT(r.chunk_count(), 1u);
  EXPECT_EQ(r.bytes_allocated(), 6400u);
  EXPECT_GE(r.bytes_reserved(), r.bytes_allocated());
}

TEST(Region, OversizedRequestGetsDedicatedChunk) {
  Region r(64);
  void* p = r.allocate(10000);
  EXPECT_NE(p, nullptr);
  std::memset(p, 0, 10000);
}

TEST(Region, ClearReleasesEverythingAtOnce) {
  Region r(128);
  for (int i = 0; i < 50; ++i) (void)r.allocate(64);
  r.clear();
  EXPECT_EQ(r.bytes_allocated(), 0u);
  EXPECT_EQ(r.allocation_count(), 0u);
  EXPECT_EQ(r.chunk_count(), 1u);  // largest chunk kept for reuse
  void* p = r.allocate(64);
  EXPECT_NE(p, nullptr);
}

TEST(Region, ZeroByteAllocationsGetDistinctPointers) {
  Region r;
  void* a = r.allocate(0);
  void* b = r.allocate(0);
  EXPECT_NE(a, b);
}

TEST(Region, TypedArrayAllocation) {
  Region r;
  double* xs = r.allocate_array<double>(16);
  for (int i = 0; i < 16; ++i) xs[i] = i;
  EXPECT_DOUBLE_EQ(xs[15], 15.0);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(xs) % alignof(double), 0u);
}

// -- GpuDevice -------------------------------------------------------------------

DeviceSpec test_gpu() {
  DeviceSpec s;
  s.name = "test-gpu";
  s.kind = DeviceKind::kGpu;
  s.peak_flops = 100.0;      // 100 flop/s: easy numbers
  s.dram_bandwidth = 1000.0; // bytes/s
  s.pcie_bandwidth = 10.0;   // bytes/s
  s.cores = 4;
  s.memory_bytes = 1000;
  s.hardware_queues = 4;
  return s;
}

sim::Process run_kernel(Simulator& sim, GpuDevice& gpu, KernelDesc k,
                        std::vector<double>& done) {
  co_await gpu.default_stream().launch(std::move(k));
  done.push_back(sim.now());
}

TEST(GpuDevice, KernelDurationFollowsRoofline) {
  Simulator sim;
  GpuDevice gpu(sim, test_gpu());
  // Compute-bound: 200 flops at 100 flop/s = 2 s.
  KernelDesc compute{"c", Workload{200, 0, 0, 10}, 1.0, 1.0, nullptr};
  EXPECT_DOUBLE_EQ(gpu.kernel_duration(compute), 2.0);
  // Memory-bound: 2000 bytes at 1000 B/s = 2 s > 1 s compute.
  KernelDesc memory{"m", Workload{100, 0, 0, 2000}, 1.0, 1.0, nullptr};
  EXPECT_DOUBLE_EQ(gpu.kernel_duration(memory), 2.0);
  // Efficiency derates the peak.
  KernelDesc derated{"d", Workload{100, 0, 0, 10}, 0.5, 1.0, nullptr};
  EXPECT_DOUBLE_EQ(gpu.kernel_duration(derated), 2.0);
}

TEST(GpuDevice, KernelExecutesPayloadAtCompletionTime) {
  Simulator sim;
  GpuDevice gpu(sim, test_gpu());
  std::vector<double> done;
  int result = 0;
  KernelDesc k{"payload", Workload{100, 0, 0, 1}, 1.0, 1.0,
               [&] { result = 42; }};
  sim.spawn(run_kernel(sim, gpu, std::move(k), done));
  sim.run();
  EXPECT_EQ(result, 42);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_DOUBLE_EQ(gpu.compute_busy_time(), 1.0);
  EXPECT_DOUBLE_EQ(gpu.flops_executed(), 100.0);
  EXPECT_EQ(gpu.kernels_launched(), 1u);
}

sim::Process staged_job(Simulator& sim, GpuDevice& gpu,
                        std::vector<double>& marks) {
  auto& s = gpu.default_stream();
  co_await s.memcpy_h2d(100.0);  // 10 s at 10 B/s
  marks.push_back(sim.now());
  // Named kernel desc: see the GCC-12 temporaries rule in process.hpp.
  KernelDesc k{"k", Workload{100, 0, 0, 1}, 1.0, 1.0, {}};
  co_await s.launch(std::move(k));
  marks.push_back(sim.now());
  co_await s.memcpy_d2h(50.0);  // 5 s
  marks.push_back(sim.now());
}

TEST(GpuDevice, StreamSerializesCopyKernelCopy) {
  Simulator sim;
  GpuDevice gpu(sim, test_gpu());
  std::vector<double> marks;
  sim.spawn(staged_job(sim, gpu, marks));
  sim.run();
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_DOUBLE_EQ(marks[0], 10.0);
  EXPECT_DOUBLE_EQ(marks[1], 11.0);
  EXPECT_DOUBLE_EQ(marks[2], 16.0);
  EXPECT_DOUBLE_EQ(gpu.pcie_bytes(), 150.0);
}

sim::Process stream_pipeline(Simulator&, Stream& s, double copy_bytes,
                             Workload w, sim::Promise<sim::Unit> done) {
  co_await s.memcpy_h2d(copy_bytes);
  KernelDesc k{"k", w, 1.0, 1.0, {}};
  co_await s.launch(std::move(k));
  done.set_value(sim::Unit{});
}

double two_stream_makespan(int hw_queues) {
  Simulator sim;
  DeviceSpec spec = test_gpu();
  spec.hardware_queues = hw_queues;
  GpuDevice gpu(sim, spec);
  Stream& s1 = gpu.create_stream();
  Stream& s2 = gpu.create_stream();
  // Each stream: 100-byte copy (10 s) + 1000-flop kernel (10 s).
  sim::Promise<sim::Unit> d1(sim), d2(sim);
  sim.spawn(stream_pipeline(sim, s1, 100.0, Workload{1000, 0, 0, 1}, d1));
  sim.spawn(stream_pipeline(sim, s2, 100.0, Workload{1000, 0, 0, 1}, d2));
  sim.run();
  return sim.now();
}

TEST(GpuDevice, HyperQOverlapsCopyWithCompute) {
  // Kepler-style (2 queues): stream 2's copy overlaps stream 1's kernel:
  // t=0..10 copy1; t=10..20 kernel1 || copy2; t=20..30 kernel2 => 30 s.
  EXPECT_DOUBLE_EQ(two_stream_makespan(2), 30.0);
}

TEST(GpuDevice, FermiSingleQueueSerializesStreams) {
  // One hardware queue: copy1, kernel1, copy2, kernel2 => 40 s.
  EXPECT_DOUBLE_EQ(two_stream_makespan(1), 40.0);
}

TEST(GpuDevice, MemoryAccountingAndExhaustion) {
  Simulator sim;
  GpuDevice gpu(sim, test_gpu());  // 1000 bytes capacity
  auto a = gpu.allocate(600);
  EXPECT_EQ(gpu.memory_used(), 600u);
  EXPECT_THROW(gpu.allocate(500), ResourceExhausted);
  {
    auto b = gpu.allocate(400);
    EXPECT_EQ(gpu.memory_used(), 1000u);
  }
  EXPECT_EQ(gpu.memory_used(), 600u);  // RAII released b
  a.release();
  EXPECT_EQ(gpu.memory_used(), 0u);
}

TEST(GpuDevice, AllocationMoveTransfersOwnership) {
  Simulator sim;
  GpuDevice gpu(sim, test_gpu());
  DeviceAllocation a = gpu.allocate(100);
  DeviceAllocation b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(gpu.memory_used(), 100u);
}

TEST(GpuDevice, LaunchOverheadCharged) {
  Simulator sim;
  DeviceSpec spec = test_gpu();
  spec.kernel_launch_overhead = 0.5;
  GpuDevice gpu(sim, spec);
  std::vector<double> done;
  sim.spawn(run_kernel(sim, gpu,
                       KernelDesc{"k", Workload{100, 0, 0, 1}, 1.0, 1.0, {}},
                       done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 1.5);
}

TEST(GpuDevice, RejectsInvalidEfficiency) {
  Simulator sim;
  GpuDevice gpu(sim, test_gpu());
  EXPECT_THROW(gpu.default_stream().launch(
                   KernelDesc{"k", Workload{1, 0, 0, 1}, 0.0, 1.0, {}}),
               InvalidArgument);
  EXPECT_THROW(gpu.default_stream().launch(
                   KernelDesc{"k", Workload{1, 0, 0, 1}, 1.0, 1.5, {}}),
               InvalidArgument);
}

// -- CpuDevice -------------------------------------------------------------------

DeviceSpec test_cpu() {
  DeviceSpec s;
  s.name = "test-cpu";
  s.kind = DeviceKind::kCpu;
  s.peak_flops = 400.0;       // 4 cores x 100 flop/s
  s.dram_bandwidth = 4000.0;  // bytes/s
  s.cores = 4;
  s.memory_bytes = 1 << 20;
  return s;
}

sim::Process run_cpu_task(Simulator& sim, CpuDevice& cpu, CpuTask t,
                          std::vector<double>& done) {
  co_await cpu.submit(std::move(t));
  done.push_back(sim.now());
}

TEST(CpuDevice, TaskDurationUsesPerCoreSlices) {
  Simulator sim;
  CpuDevice cpu(sim, test_cpu());
  // Per-core: 100 flop/s, 1000 B/s.
  CpuTask compute{"c", Workload{200, 0, 0, 10}, 1.0, 1.0, {}};
  EXPECT_DOUBLE_EQ(cpu.task_duration(compute), 2.0);
  CpuTask memory{"m", Workload{100, 0, 0, 3000}, 1.0, 1.0, {}};
  EXPECT_DOUBLE_EQ(cpu.task_duration(memory), 3.0);
}

TEST(CpuDevice, FourCoresRunFourTasksConcurrently) {
  Simulator sim;
  CpuDevice cpu(sim, test_cpu());
  std::vector<double> done;
  for (int i = 0; i < 8; ++i) {
    sim.spawn(run_cpu_task(sim, cpu,
                           CpuTask{"t", Workload{100, 0, 0, 1}, 1.0, 1.0, {}},
                           done));
  }
  sim.run();
  ASSERT_EQ(done.size(), 8u);
  // Two waves of 4 tasks, 1 s each.
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(done[static_cast<size_t>(i)], 1.0);
  for (int i = 4; i < 8; ++i) EXPECT_DOUBLE_EQ(done[static_cast<size_t>(i)], 2.0);
  EXPECT_EQ(cpu.tasks_executed(), 8u);
  EXPECT_DOUBLE_EQ(cpu.flops_executed(), 800.0);
}

TEST(CpuDevice, ReservedCoresLimitConcurrency) {
  Simulator sim;
  CpuDevice cpu(sim, test_cpu(), /*reserved_cores=*/2);
  EXPECT_EQ(cpu.cores(), 2);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    sim.spawn(run_cpu_task(sim, cpu,
                           CpuTask{"t", Workload{100, 0, 0, 1}, 1.0, 1.0, {}},
                           done));
  }
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);  // two waves of two
}

TEST(CpuDevice, SaturatedAggregateMatchesRoofline) {
  // 8 memory-bound tasks of 1000 bytes each on 4 cores: per-core bw
  // 1000 B/s -> aggregate 4000 B/s = spec DRAM bandwidth.
  Simulator sim;
  CpuDevice cpu(sim, test_cpu());
  std::vector<double> done;
  for (int i = 0; i < 8; ++i) {
    sim.spawn(run_cpu_task(
        sim, cpu, CpuTask{"t", Workload{1, 0, 0, 1000}, 1.0, 1.0, {}}, done));
  }
  sim.run();
  // 8000 bytes total / 4000 B/s aggregate = 2 s.
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(CpuDevice, PayloadRunsOnCompletion) {
  Simulator sim;
  CpuDevice cpu(sim, test_cpu());
  int x = 0;
  std::vector<double> done;
  sim.spawn(run_cpu_task(
      sim, cpu,
      CpuTask{"t", Workload{100, 0, 0, 1}, 1.0, 1.0, [&] { x = 7; }}, done));
  sim.run();
  EXPECT_EQ(x, 7);
}

// -- Deferred payloads ------------------------------------------------------------
// A task's functional payload runs somewhere between the task's start and
// its completion: bodies in flight together run together in one pool region
// (simtime/payload_queue.hpp).

/// Pins the host pool to `n` threads for one test, restoring the default.
class PoolThreads {
 public:
  explicit PoolThreads(int n) { exec::ThreadPool::instance().configure(n); }
  ~PoolThreads() { exec::ThreadPool::instance().configure(0); }
  PoolThreads(const PoolThreads&) = delete;
  PoolThreads& operator=(const PoolThreads&) = delete;
};

/// Fault hook handing out a fixed verdict sequence, then healthy runs.
class ScriptedFaults : public ExecFaultHook {
 public:
  explicit ScriptedFaults(std::vector<ExecFault> script)
      : script_(std::move(script)) {}
  ExecFault on_task(const ExecSite&) override {
    if (next_ >= script_.size()) return ExecFault{};
    return script_[next_++];
  }

 private:
  std::vector<ExecFault> script_;
  std::size_t next_ = 0;
};

ExecFault failing() {
  ExecFault f;
  f.fail = true;
  return f;
}

ExecFault hanging() {
  ExecFault f;
  f.hang = true;
  return f;
}

TEST(DeferredPayload, SameStartCpuBodiesRunInOnePoolRegion) {
  const PoolThreads threads(4);
  auto& pool = exec::ThreadPool::instance();
  Simulator sim;
  CpuDevice cpu(sim, test_cpu());
  std::atomic<int> ran{0};
  std::atomic<int> in_region{0};
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    CpuTask t{"t", Workload{100, 0, 0, 1}, 1.0, 1.0, [&] {
                ++ran;
                if (exec::ThreadPool::in_parallel_region()) ++in_region;
              }};
    sim.spawn(run_cpu_task(sim, cpu, std::move(t), done));
  }
  const exec::PoolStats before = pool.stats();
  sim.run();
  const exec::PoolStats after = pool.stats();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(in_region.load(), 4);
  EXPECT_EQ(after.jobs - before.jobs, 1u);      // one region for the wave
  EXPECT_EQ(after.chunks - before.chunks, 4u);  // one chunk per body
  ASSERT_EQ(done.size(), 4u);
  for (const double t : done) EXPECT_DOUBLE_EQ(t, 1.0);  // timing unmoved
  EXPECT_EQ(sim.payloads().pending(), 0u);
}

TEST(DeferredPayload, LoneBodyKeepsThePoolForItsOwnLoops) {
  const PoolThreads threads(4);
  auto& pool = exec::ThreadPool::instance();
  Simulator sim;
  CpuDevice cpu(sim, test_cpu());
  bool top_level = false;
  std::vector<int> out(64, 0);
  std::vector<double> done;
  CpuTask t{"t", Workload{100, 0, 0, 1}, 1.0, 1.0, [&] {
              top_level = !exec::ThreadPool::in_parallel_region();
              exec::parallel_for(0, out.size(), 8,
                                 [&](std::size_t b, std::size_t e) {
                                   for (std::size_t i = b; i < e; ++i) {
                                     out[i] = static_cast<int>(i);
                                   }
                                 });
            }};
  sim.spawn(run_cpu_task(sim, cpu, std::move(t), done));
  const exec::PoolStats before = pool.stats();
  sim.run();
  const exec::PoolStats after = pool.stats();
  EXPECT_TRUE(top_level);
  // The body's own loop is the only region, and a top-level one.
  EXPECT_EQ(after.jobs - before.jobs, 1u);
  EXPECT_EQ(after.nested_jobs - before.nested_jobs, 0u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(DeferredPayload, ThrowSurfacesAtItsOwnCompletionNotASiblings) {
  const PoolThreads threads(4);
  Simulator sim;
  CpuDevice cpu(sim, test_cpu());
  std::vector<int> sibling_out;
  std::vector<double> done;
  // Both start at t=0, so the sibling's join at t=1 runs both bodies.
  CpuTask sibling{"ok", Workload{100, 0, 0, 1}, 1.0, 1.0, [&] {
                    for (int i = 0; i < 100; ++i) sibling_out.push_back(i);
                  }};
  CpuTask thrower{"bad", Workload{300, 0, 0, 1}, 1.0, 1.0,
                  [] { throw std::runtime_error("payload boom"); }};
  sim.spawn(run_cpu_task(sim, cpu, std::move(sibling), done));
  sim.spawn(run_cpu_task(sim, cpu, std::move(thrower), done));
  try {
    sim.run();
    FAIL() << "the throwing payload did not surface";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "payload boom");
  }
  // Surfaced at the thrower's completion (t=3), after the sibling
  // completed normally at t=1 with its whole output.
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  ASSERT_EQ(sibling_out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sibling_out[static_cast<std::size_t>(i)], i);
  }
}

TEST(DeferredPayload, FailedAndHungTasksNeverRunTheirBody) {
  const PoolThreads threads(4);
  Simulator sim;
  CpuDevice cpu(sim, test_cpu());
  GpuDevice gpu(sim, test_gpu());
  ScriptedFaults cpu_faults({failing(), hanging()});
  ScriptedFaults gpu_faults({failing(), hanging()});
  cpu.set_fault_context(&cpu_faults, 0);
  gpu.set_fault_context(&gpu_faults, 0, 0);
  std::atomic<int> cpu_ran{0};
  std::atomic<int> gpu_ran{0};
  bool cpu_failed = false;
  bool gpu_failed = false;
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    CpuTask t{"t", Workload{100, 0, 0, 1}, 1.0, 1.0, [&] { ++cpu_ran; }};
    if (i == 0) t.failed = &cpu_failed;
    sim.spawn(run_cpu_task(sim, cpu, std::move(t), done));
  }
  // Kernel 0 fails; kernel 1 hangs its stream. Kernel 2 is healthy on a
  // stream of its own.
  for (int i = 0; i < 3; ++i) {
    KernelDesc k{"k", Workload{100, 0, 0, 1}, 1.0, 1.0, [&] { ++gpu_ran; }};
    if (i == 0) k.failed = &gpu_failed;
    gpu.stream(i).launch(std::move(k));
  }
  sim.run();
  EXPECT_TRUE(cpu_failed);
  EXPECT_TRUE(gpu_failed);
  EXPECT_EQ(cpu_ran.load(), 1);  // only the healthy task
  EXPECT_EQ(gpu_ran.load(), 1);  // only the healthy kernel
  EXPECT_EQ(done.size(), 2u);    // the hung task never completes
  EXPECT_EQ(sim.payloads().pending(), 0u);  // nothing was left queued
}

TEST(DeferredPayload, PendingBodiesAreDroppedAtTeardown) {
  auto capture = std::make_shared<int>(0);
  bool ran = false;
  {
    Simulator sim;
    CpuDevice cpu(sim, test_cpu());
    std::vector<double> done;
    CpuTask t{"t", Workload{1000, 0, 0, 1}, 1.0, 1.0,
              [&ran, capture] { ran = true; }};
    sim.spawn(run_cpu_task(sim, cpu, std::move(t), done));
    sim.run_until(5.0);  // started at 0, completes at 10: still in flight
    EXPECT_EQ(sim.payloads().pending(), 1u);
    EXPECT_FALSE(ran);
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(capture.use_count(), 1);  // the body's captures were released
}

TEST(CpuDevice, RejectsGpuSpec) {
  Simulator sim;
  EXPECT_THROW(CpuDevice(sim, test_gpu()), InvalidArgument);
}

TEST(GpuDevice, RejectsCpuSpec) {
  Simulator sim;
  EXPECT_THROW(GpuDevice(sim, test_cpu()), InvalidArgument);
}

}  // namespace
}  // namespace prs::simdev
