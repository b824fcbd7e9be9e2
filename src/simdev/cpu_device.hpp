// CPU device model: a pool of cores executing tasks on the virtual clock.
//
// Each submitted task occupies one core; its duration follows the roofline
// with per-core slices of peak performance and DRAM bandwidth:
//     t = max(flops / (eff_c * peak/cores),
//             mem_traffic / (eff_m * dram_bw/cores))
// When all cores are busy the aggregate rate is therefore
// min(eff_c * peak, AI * eff_m * dram_bw) — exactly the CPU roofline the
// paper's Eq (6) assumes. (With fewer running tasks than cores the model
// under-uses DRAM slightly; the PRS always oversubscribes cores, so the
// saturated regime is the one that matters.)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simdev/device_spec.hpp"
#include "simdev/fault_hook.hpp"
#include "simdev/workload.hpp"
#include "simtime/future.hpp"
#include "simtime/resource.hpp"
#include "simtime/simulator.hpp"

namespace prs::simdev {

/// A task to run on one CPU core.
struct CpuTask {
  std::string name;
  Workload workload;
  /// Fraction of per-core peak flops attained (calibration).
  double compute_efficiency = 1.0;
  /// Fraction of per-core DRAM bandwidth attained.
  double memory_efficiency = 1.0;
  /// Functional payload. It runs on a host thread at some point between
  /// the task's start (core held) and its completion, possibly in one
  /// pool region with other in-flight tasks' payloads; the completion
  /// waits for it and rethrows its exception (simtime/payload_queue.hpp).
  /// It must read only inputs frozen over that window, write only its own
  /// outputs, and never touch the simulator.
  std::function<void()> body;
  /// Modeled stand-in for a payload (placeholder emits, no real work):
  /// runs inline on the simulator thread at task completion.
  std::function<void()> stand_in = nullptr;
  /// Optional out-flag set to true when fault injection fails this task
  /// (body and stand-in are then skipped but the completion future still
  /// resolves).
  bool* failed = nullptr;
};

/// One simulated multi-core CPU (all sockets of a node together).
class CpuDevice {
 public:
  /// `reserved_cores` restricts how many cores the runtime may use
  /// (0 = all). The paper dedicates all cores minus the GPU daemon thread.
  CpuDevice(sim::Simulator& sim, DeviceSpec spec, int reserved_cores = 0);
  CpuDevice(const CpuDevice&) = delete;
  CpuDevice& operator=(const CpuDevice&) = delete;

  const DeviceSpec& spec() const { return spec_; }
  sim::Simulator& simulator() { return sim_; }
  int cores() const { return cores_in_use_; }

  /// Submits a task to the core pool; the future resolves at completion.
  sim::Future<sim::Unit> submit(CpuTask task);

  /// Roofline duration of the task on one core (without queueing).
  double task_duration(const CpuTask& task) const;

  // Utilization counters (profiling-based splits, Table 5).
  double busy_time() const { return busy_time_; }
  double flops_executed() const { return flops_executed_; }
  std::uint64_t tasks_executed() const { return tasks_executed_; }
  void reset_counters();

  /// Trace "process" this device's spans are filed under (obs/trace.hpp);
  /// FatNode sets "node<r>", standalone devices default to "dev". Tasks
  /// appear on per-core lanes "cpu.core<k>" so concurrent spans never
  /// overlap within one track.
  void set_trace_process(std::string process) {
    trace_process_ = std::move(process);
  }

  /// Attaches (or detaches, with nullptr) the fault-injection hook and
  /// records which cluster node this device belongs to. Costs one null
  /// check per task when detached.
  void set_fault_context(ExecFaultHook* hook, int node) {
    fault_hook_ = hook;
    fault_node_ = node;
  }

 private:
  sim::Process task_worker(CpuTask task, sim::Promise<sim::Unit> done);
  int acquire_trace_lane();

  sim::Simulator& sim_;
  DeviceSpec spec_;
  int cores_in_use_;
  sim::Resource core_pool_;
  double busy_time_ = 0.0;
  double flops_executed_ = 0.0;
  std::uint64_t tasks_executed_ = 0;
  std::string trace_process_ = "dev";
  std::vector<std::uint8_t> trace_lane_busy_;  // per-core span lanes
  ExecFaultHook* fault_hook_ = nullptr;
  int fault_node_ = -1;
};

}  // namespace prs::simdev
