#include "apps/fftbatch.hpp"

#include "common/error.hpp"
#include "core/calibration.hpp"
#include "exec/parallel.hpp"

namespace prs::apps {
namespace {

/// Host-pool grain: one transform is O(5 n log n) flops, so even short
/// batches split usefully at 4 signals per chunk.
constexpr std::size_t kSignalGrain = 4;

}  // namespace

SignalBatch fft_batch_serial(const SignalBatch& in) {
  PRS_REQUIRE(in.signal_size > 0, "batch needs a signal size");
  SignalBatch out = in;
  // Each signal transforms into its own slot — byte-identical for any
  // host thread count.
  exec::parallel_for(
      0, in.count(), kSignalGrain, [&](std::size_t b, std::size_t e) {
        std::vector<linalg::Complex> buf(in.signal_size);
        for (std::size_t i = b; i < e; ++i) {
          buf.assign(in.signal(i), in.signal(i) + in.signal_size);
          linalg::fft(buf);
          std::copy(buf.begin(), buf.end(), out.signal(i));
        }
      });
  return out;
}

FftBatchSpec fft_batch_spec(std::shared_ptr<FftBatchState> state,
                            std::size_t signal_size) {
  PRS_REQUIRE(state != nullptr, "spec needs a state");
  FftBatchSpec spec;
  spec.name = "fft-batch";
  spec.cpu_map =
      [state, signal_size](const core::InputSlice& s,
                           core::Emitter<long, std::vector<linalg::Complex>>& e) {
        const auto& in = *state->input;
        std::vector<linalg::Complex> out(s.size() * signal_size);
        exec::parallel_for(
            s.begin, s.end, kSignalGrain,
            [&](std::size_t b, std::size_t en) {
              std::vector<linalg::Complex> buf(signal_size);
              for (std::size_t i = b; i < en; ++i) {
                buf.assign(in.signal(i), in.signal(i) + signal_size);
                linalg::fft(buf);
                std::copy(buf.begin(), buf.end(),
                          out.begin() + static_cast<std::ptrdiff_t>(
                                            (i - s.begin) * signal_size));
              }
            });
        e.emit(static_cast<long>(s.begin), std::move(out));
      };
  spec.modeled_map =
      [](const core::InputSlice& s,
         core::Emitter<long, std::vector<linalg::Complex>>& e) {
        e.emit(static_cast<long>(s.begin), {});
      };
  spec.combine = [](const std::vector<linalg::Complex>& a,
                    const std::vector<linalg::Complex>& b) {
    std::vector<linalg::Complex> out = a;  // unique keys: defensive concat
    out.insert(out.end(), b.begin(), b.end());
    return out;
  };

  const auto n = static_cast<double>(signal_size);
  spec.cpu_flops_per_item = linalg::fft_flops(signal_size);
  spec.gpu_flops_per_item = spec.cpu_flops_per_item;
  spec.ai_cpu = linalg::fft_arithmetic_intensity(signal_size);
  spec.ai_gpu = spec.ai_cpu;
  spec.gpu_data_cached = false;  // each batch streams through once
  spec.item_bytes = n;           // one signal, element-counted
  spec.pair_bytes = n;           // transformed signal comes back
  spec.gpu_item_d2h_bytes = n;
  spec.reduce_flops_per_pair = 1.0;
  // FFT kernels attain a large fraction of the bandwidth roofline.
  spec.efficiency = {0.6, 0.6, 0.6, 0.6};
  return spec;
}

SignalBatch fft_batch_prs(core::Cluster& cluster, const SignalBatch& in,
                          const core::JobConfig& cfg,
                          core::JobStats* stats_out) {
  PRS_REQUIRE(in.count() > 0, "batch must be non-empty");
  auto state = std::make_shared<FftBatchState>();
  state->input = &in;
  FftBatchSpec spec = fft_batch_spec(state, in.signal_size);

  auto result = core::run_job(cluster, spec, cfg, in.count());
  if (stats_out != nullptr) *stats_out = result.stats;

  SignalBatch out;
  out.signal_size = in.signal_size;
  if (cfg.mode == core::ExecutionMode::kFunctional) {
    out.samples.resize(in.samples.size());
    for (const auto& [start, signals] : result.output) {
      const std::size_t offset =
          static_cast<std::size_t>(start) * in.signal_size;
      PRS_CHECK(offset + signals.size() <= out.samples.size(),
                "segment out of range");
      std::copy(signals.begin(), signals.end(),
                out.samples.begin() + static_cast<std::ptrdiff_t>(offset));
    }
  }
  return out;
}

core::JobStats fft_batch_prs_modeled(core::Cluster& cluster,
                                     std::size_t signals,
                                     std::size_t signal_size,
                                     core::JobConfig cfg) {
  PRS_REQUIRE(signals > 0, "modeled run needs a shape");
  cfg.mode = core::ExecutionMode::kModeled;
  auto state = std::make_shared<FftBatchState>();
  FftBatchSpec spec = fft_batch_spec(state, signal_size);
  auto result = core::run_job(cluster, spec, cfg, signals);
  return result.stats;
}

}  // namespace prs::apps
