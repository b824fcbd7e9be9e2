#include "simdev/cpu_device.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "simtime/process.hpp"

namespace prs::simdev {

CpuDevice::CpuDevice(sim::Simulator& sim, DeviceSpec spec, int reserved_cores)
    : sim_(sim),
      spec_(std::move(spec)),
      cores_in_use_(reserved_cores > 0
                        ? std::min(reserved_cores, spec_.cores)
                        : spec_.cores),
      core_pool_(sim, static_cast<std::size_t>(cores_in_use_)) {
  PRS_REQUIRE(spec_.kind == DeviceKind::kCpu, "CpuDevice needs a CPU spec");
  PRS_REQUIRE(spec_.peak_flops > 0.0, "CPU peak flops must be positive");
  PRS_REQUIRE(spec_.dram_bandwidth > 0.0, "CPU DRAM bandwidth must be > 0");
  PRS_REQUIRE(spec_.cores >= 1, "CPU needs at least one core");
}

double CpuDevice::task_duration(const CpuTask& task) const {
  // Per-core slices of the node's peak rate and DRAM bandwidth; reserving
  // fewer cores than physically present lowers aggregate throughput because
  // fewer tasks run concurrently, not because a core gets slower.
  const double per_core_flops =
      spec_.peak_flops / static_cast<double>(spec_.cores);
  const double per_core_bw =
      spec_.dram_bandwidth / static_cast<double>(spec_.cores);
  const double compute_t =
      task.workload.flops / (task.compute_efficiency * per_core_flops);
  const double memory_t =
      task.workload.mem_traffic / (task.memory_efficiency * per_core_bw);
  return std::max(compute_t, memory_t);
}

sim::Future<sim::Unit> CpuDevice::submit(CpuTask task) {
  PRS_REQUIRE(task.workload.flops >= 0.0, "task flops must be >= 0");
  PRS_REQUIRE(task.compute_efficiency > 0.0 && task.compute_efficiency <= 1.0,
              "compute efficiency must be in (0, 1]");
  PRS_REQUIRE(task.memory_efficiency > 0.0 && task.memory_efficiency <= 1.0,
              "memory efficiency must be in (0, 1]");
  sim::Promise<sim::Unit> done(sim_);
  auto fut = done.get_future();
  sim_.spawn(task_worker(std::move(task), std::move(done)));
  return fut;
}

int CpuDevice::acquire_trace_lane() {
  // One visual lane per concurrently busy core; the core_pool_ semaphore
  // bounds concurrency, so a free lane always exists.
  if (trace_lane_busy_.empty()) {
    trace_lane_busy_.resize(static_cast<std::size_t>(cores_in_use_), 0);
  }
  for (std::size_t i = 0; i < trace_lane_busy_.size(); ++i) {
    if (trace_lane_busy_[i] == 0) {
      trace_lane_busy_[i] = 1;
      return static_cast<int>(i);
    }
  }
  return -1;
}

sim::Process CpuDevice::task_worker(CpuTask task,
                                    sim::Promise<sim::Unit> done) {
  co_await core_pool_.acquire();
  sim::ResourceGuard core(core_pool_, 1);
  ExecFault fault;
  if (fault_hook_ != nullptr) {
    fault = fault_hook_->on_task(
        ExecSite{fault_node_, DeviceClass::kCpu, /*card=*/-1});
    if (fault.hang) {
      // Hung task: the completion promise is destroyed unresolved, so the
      // future never fires. The caller's timeout is the only way out.
      co_return;
    }
  }
  // The payload's window opens: it may run from here to the completion.
  const sim::PayloadQueue::Ticket payload =
      !fault.fail && task.body ? sim_.payloads().defer(std::move(task.body))
                               : nullptr;
  const double t = task_duration(task) * fault.slowdown;
  obs::TraceRecorder* tr = sim_.tracer();
  const int lane =
      (tr != nullptr && tr->enabled()) ? acquire_trace_lane() : -1;
  co_await sim::delay(sim_, t);
  busy_time_ += t;
  flops_executed_ += task.workload.flops;
  ++tasks_executed_;
  if (lane >= 0) {
    tr->complete(tr->track(trace_process_, "cpu.core" + std::to_string(lane)),
                 task.name, "cpu", sim_.now() - t, sim_.now(),
                 {obs::arg("flops", task.workload.flops),
                  obs::arg("bytes", task.workload.mem_traffic)});
    tr->metrics().counter("cpu.tasks").increment();
    tr->metrics()
        .histogram("cpu.task_seconds", obs::geometric_buckets(1e-6, 4.0, 16))
        .observe(t);
    trace_lane_busy_[static_cast<std::size_t>(lane)] = 0;
  }
  if (fault.fail) {
    // Transient failure: full time was charged, the functional payload is
    // skipped, and the caller learns about it through the failed-flag.
    if (task.failed != nullptr) *task.failed = true;
  } else {
    sim_.payloads().join(payload);
    if (task.stand_in) task.stand_in();
  }
  done.set_value(sim::Unit{});
}

void CpuDevice::reset_counters() {
  busy_time_ = 0.0;
  flops_executed_ = 0.0;
  tasks_executed_ = 0;
}

}  // namespace prs::simdev
