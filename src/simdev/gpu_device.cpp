#include "simdev/gpu_device.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "simtime/process.hpp"

namespace prs::simdev {

// -- DeviceAllocation ---------------------------------------------------------

DeviceAllocation::DeviceAllocation(GpuDevice* dev, std::uint64_t bytes)
    : dev_(dev), bytes_(bytes) {}

DeviceAllocation::DeviceAllocation(DeviceAllocation&& o) noexcept
    : dev_(o.dev_), bytes_(o.bytes_) {
  o.dev_ = nullptr;
  o.bytes_ = 0;
}

DeviceAllocation& DeviceAllocation::operator=(DeviceAllocation&& o) noexcept {
  if (this != &o) {
    release();
    dev_ = o.dev_;
    bytes_ = o.bytes_;
    o.dev_ = nullptr;
    o.bytes_ = 0;
  }
  return *this;
}

DeviceAllocation::~DeviceAllocation() { release(); }

void DeviceAllocation::release() {
  if (dev_ != nullptr) {
    dev_->free_bytes(bytes_);
    dev_ = nullptr;
    bytes_ = 0;
  }
}

// -- Stream --------------------------------------------------------------------

Stream::Stream(GpuDevice& dev, int id)
    : dev_(dev),
      id_(id),
      queue_(std::make_unique<sim::Channel<std::shared_ptr<Command>>>(
          dev.simulator())) {}

sim::Future<sim::Unit> Stream::enqueue(Command cmd) {
  auto boxed = std::make_shared<Command>(std::move(cmd));
  auto fut = boxed->done.get_future();
  queue_->send(std::move(boxed));
  last_op_ = fut;
  return fut;
}

sim::Future<sim::Unit> Stream::memcpy_h2d(double bytes) {
  PRS_REQUIRE(bytes >= 0.0, "copy size must be non-negative");
  return enqueue(Command{Command::Type::kCopyH2D, bytes, {},
                         sim::Promise<sim::Unit>(dev_.simulator())});
}

sim::Future<sim::Unit> Stream::memcpy_d2h(double bytes) {
  PRS_REQUIRE(bytes >= 0.0, "copy size must be non-negative");
  return enqueue(Command{Command::Type::kCopyD2H, bytes, {},
                         sim::Promise<sim::Unit>(dev_.simulator())});
}

sim::Future<sim::Unit> Stream::launch(KernelDesc kernel) {
  PRS_REQUIRE(kernel.workload.flops >= 0.0, "kernel flops must be >= 0");
  PRS_REQUIRE(kernel.compute_efficiency > 0.0 &&
                  kernel.compute_efficiency <= 1.0,
              "compute efficiency must be in (0, 1]");
  PRS_REQUIRE(kernel.memory_efficiency > 0.0 &&
                  kernel.memory_efficiency <= 1.0,
              "memory efficiency must be in (0, 1]");
  return enqueue(Command{Command::Type::kKernel, 0.0, std::move(kernel),
                         sim::Promise<sim::Unit>(dev_.simulator())});
}

sim::Future<sim::Unit> Stream::synchronize() {
  if (!last_op_.valid()) {
    sim::Promise<sim::Unit> p(dev_.simulator());
    p.set_value(sim::Unit{});
    return p.get_future();
  }
  return last_op_;
}

// -- GpuDevice -------------------------------------------------------------------

GpuDevice::GpuDevice(sim::Simulator& sim, DeviceSpec spec)
    : sim_(sim),
      spec_(std::move(spec)),
      pcie_(sim, spec_.pcie_bandwidth > 0.0 ? spec_.pcie_bandwidth : 1.0,
            spec_.pcie_latency),
      compute_engine_(sim, 1),
      hw_queues_(sim, static_cast<std::size_t>(
                          std::max(1, spec_.hardware_queues))) {
  PRS_REQUIRE(spec_.kind == DeviceKind::kGpu, "GpuDevice needs a GPU spec");
  PRS_REQUIRE(spec_.peak_flops > 0.0, "GPU peak flops must be positive");
  PRS_REQUIRE(spec_.pcie_bandwidth > 0.0, "GPU needs a PCI-E bandwidth");
  create_stream();  // default stream 0
}

GpuDevice::~GpuDevice() {
  for (auto& s : streams_) {
    if (!s->queue_->closed()) s->queue_->close();
  }
}

Stream& GpuDevice::create_stream() {
  const int id = static_cast<int>(streams_.size());
  streams_.push_back(std::unique_ptr<Stream>(new Stream(*this, id)));
  sim_.spawn(stream_worker(*streams_.back()));
  return *streams_.back();
}

Stream& GpuDevice::stream(int index) {
  PRS_REQUIRE(index >= 0, "stream index must be non-negative");
  while (static_cast<int>(streams_.size()) <= index) create_stream();
  return *streams_[static_cast<std::size_t>(index)];
}

DeviceAllocation GpuDevice::allocate(std::uint64_t bytes) {
  if (memory_used_ + bytes > spec_.memory_bytes) {
    throw ResourceExhausted("GPU out of memory on " + spec_.name + ": " +
                            std::to_string(memory_used_ + bytes) + " of " +
                            std::to_string(spec_.memory_bytes) + " bytes");
  }
  memory_used_ += bytes;
  return DeviceAllocation(this, bytes);
}

void GpuDevice::free_bytes(std::uint64_t bytes) {
  PRS_CHECK(memory_used_ >= bytes, "device memory double free");
  memory_used_ -= bytes;
}

double GpuDevice::kernel_duration(const KernelDesc& k) const {
  const double compute_t =
      k.workload.flops / (k.compute_efficiency * spec_.peak_flops);
  const double memory_t =
      k.workload.mem_traffic / (k.memory_efficiency * spec_.dram_bandwidth);
  return spec_.kernel_launch_overhead + std::max(compute_t, memory_t);
}

void GpuDevice::reset_counters() {
  compute_busy_ = 0.0;
  flops_executed_ = 0.0;
  kernels_launched_ = 0;
  pcie_.reset_counters();
}

sim::Process GpuDevice::stream_worker(Stream& stream) {
  sim::Channel<std::shared_ptr<Stream::Command>>& q = *stream.queue_;
  const int stream_id = stream.id_;
  for (;;) {
    auto cmd = co_await q.recv();
    if (!cmd) break;  // device destroyed
    ExecFault fault;
    if (fault_hook_ != nullptr) {
      fault = fault_hook_->on_task(
          ExecSite{fault_node_, DeviceClass::kGpu, fault_card_});
      if (fault.hang) {
        // Wedged stream: this command and everything queued behind it
        // never complete (the worker exits; futures stay unresolved).
        co_return;
      }
    }
    // A hardware work queue slot covers the whole command. With one queue
    // (Fermi) every command on the device serializes; with Hyper-Q copies
    // and kernels from different streams overlap.
    co_await hw_queues_.acquire();
    sim::ResourceGuard queue_slot(hw_queues_, 1);
    // One branch per command when tracing is off; span strings are only
    // built in the traced case below.
    obs::TraceRecorder* tr = sim_.tracer();
    if (tr != nullptr && !tr->enabled()) tr = nullptr;
    const double t0 = sim_.now();
    switch ((*cmd)->type) {
      case Stream::Command::Type::kCopyH2D:
      case Stream::Command::Type::kCopyD2H: {
        const bool h2d = (*cmd)->type == Stream::Command::Type::kCopyH2D;
        co_await pcie_.transfer((*cmd)->bytes);
        if (tr != nullptr) {
          // Span covers PCI-E link queueing + serialization for this copy.
          tr->complete(
              tr->track(trace_process_,
                        trace_gpu_label_ + ".s" + std::to_string(stream_id)),
              h2d ? "memcpy_h2d" : "memcpy_d2h", "pcie", t0, sim_.now(),
              {obs::arg("bytes", (*cmd)->bytes)});
          tr->metrics().counter("pcie.bytes").add((*cmd)->bytes);
          tr->metrics()
              .histogram("pcie.copy_bytes",
                         obs::geometric_buckets(1024.0, 4.0, 16))
              .observe((*cmd)->bytes);
        }
        break;
      }
      case Stream::Command::Type::kKernel: {
        co_await compute_engine_.acquire();
        sim::ResourceGuard engine(compute_engine_, 1);
        // The payload's window opens: it may run from here to completion.
        KernelDesc& kernel = (*cmd)->kernel;
        const sim::PayloadQueue::Ticket payload =
            !fault.fail && kernel.body
                ? sim_.payloads().defer(std::move(kernel.body))
                : nullptr;
        const double t = kernel_duration(kernel) * fault.slowdown;
        co_await sim::delay(sim_, t);
        compute_busy_ += t;
        flops_executed_ += kernel.workload.flops;
        ++kernels_launched_;
        if (tr != nullptr) {
          // Span covers execution only (compute-engine occupancy), not the
          // wait for the engine.
          tr->complete(
              tr->track(trace_process_,
                        trace_gpu_label_ + ".s" + std::to_string(stream_id)),
              kernel.name, "kernel", sim_.now() - t, sim_.now(),
              {obs::arg("flops", kernel.workload.flops),
               obs::arg("bytes", kernel.workload.mem_traffic)});
          tr->metrics().counter("gpu.kernels").increment();
          tr->metrics()
              .histogram("gpu.kernel_seconds",
                         obs::geometric_buckets(1e-6, 4.0, 16))
              .observe(t);
        }
        if (fault.fail) {
          // Transient kernel failure: time charged, payload skipped.
          if (kernel.failed != nullptr) *kernel.failed = true;
        } else {
          sim_.payloads().join(payload);
          if (kernel.stand_in) kernel.stand_in();
        }
        break;
      }
    }
    (*cmd)->done.set_value(sim::Unit{});
  }
}

}  // namespace prs::simdev
