#include "apps/gmm.hpp"

#include <cmath>
#include <numbers>
#include <span>

#include "apps/cmeans.hpp"  // initial_centers
#include "common/error.hpp"
#include "core/calibration.hpp"
#include "exec/parallel.hpp"
#include "simd/kernels.hpp"

namespace prs::apps {
namespace {

/// Host-pool grain: ~11*M*D flops per point (log/exp heavy) — 128 points
/// per chunk amortize the hand-off comfortably.
constexpr std::size_t kMapGrain = 128;

/// log N(x | mu_m, diag(var_m)) for one point/component (Eq (15), diagonal).
double log_gaussian(std::span<const double> x, const linalg::MatrixD& means,
                    const linalg::MatrixD& variances, std::size_t m) {
  const std::size_t d = means.cols();
  double quad = 0.0, logdet = 0.0;
  const double* mu = means.row(m);
  const double* var = variances.row(m);
  for (std::size_t c = 0; c < d; ++c) {
    const double diff = x[c] - mu[c];
    quad += diff * diff / var[c];
    logdet += std::log(var[c]);
  }
  return -0.5 * (quad + logdet +
                 static_cast<double>(d) * std::log(2.0 * std::numbers::pi));
}

/// E-step + partial M-step sums over a slice.
/// partial[m] = [sum_i r_im, sum_i r_im x_i (D), sum_i r_im x_i^2 (D),
///               loglik partial] (loglik accounted on component 0).
void accumulate_range(const linalg::MatrixD& points, const GmmModel& model,
                      std::size_t begin, std::size_t end,
                      std::vector<std::vector<double>>& partials) {
  const std::size_t m = model.means.rows();
  const std::size_t d = model.means.cols();
  const simd::Kernels& kn = simd::active_kernels();

  // Transposed mean/variance packs for the lane-per-component quadratic
  // kernel, plus per-component log-determinants hoisted out of the point
  // loop: logdet is a pure function of the variances, summed in the same
  // ascending-c order as log_gaussian, so hoisting does not change a bit.
  static thread_local std::vector<double> mu_t, var_t;
  simd::pack_transposed(model.means.row(0), m, d, mu_t);
  simd::pack_transposed(model.variances.row(0), m, d, var_t);
  static thread_local std::vector<double> logdetc, quad;
  logdetc.assign(m, 0.0);
  quad.assign(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    double logdet = 0.0;
    const double* var = model.variances.row(j);
    for (std::size_t c = 0; c < d; ++c) logdet += std::log(var[c]);
    logdetc[j] = logdet;
  }
  const double dl2pi =
      static_cast<double>(d) * std::log(2.0 * std::numbers::pi);

  std::vector<double> logp(m);
  for (std::size_t i = begin; i < end; ++i) {
    const double* x = points.row(i);
    kn.quad_block(x, mu_t.data(), var_t.data(), m, d, quad.data());
    double max_log = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < m; ++j) {
      // Same association as log_gaussian: (quad + logdet) + d*log(2*pi).
      logp[j] = std::log(model.weights[j]) +
                -0.5 * (quad[j] + logdetc[j] + dl2pi);
      max_log = std::max(max_log, logp[j]);
    }
    // log-sum-exp for numerical stability.
    double sum = 0.0;
    for (std::size_t j = 0; j < m; ++j) sum += std::exp(logp[j] - max_log);
    const double log_norm = max_log + std::log(sum);
    partials[0][2 * d + 1] += log_norm;

    for (std::size_t j = 0; j < m; ++j) {
      const double r = std::exp(logp[j] - log_norm);
      if (r == 0.0) continue;
      auto& p = partials[j];
      p[0] += r;
      kn.moments_acc(p.data() + 1, p.data() + 1 + d, x, r, d);
    }
  }
}

/// E-step + partial M-step over [begin, end) on the host thread pool —
/// fixed chunking and fixed-order combine make the result byte-identical
/// for any thread count (exec/parallel.hpp).
void accumulate_slice(const linalg::MatrixD& points, const GmmModel& model,
                      std::size_t begin, std::size_t end,
                      std::vector<std::vector<double>>& partials) {
  const std::size_t m = model.means.rows();
  const std::size_t d = model.means.cols();
  using Partials = std::vector<std::vector<double>>;
  if (begin >= end) {
    partials.assign(m, std::vector<double>(2 * d + 2, 0.0));
    return;
  }
  partials = exec::parallel_reduce(
      begin, end, kMapGrain, Partials{},
      [&](std::size_t b, std::size_t e, Partials acc) {
        acc.assign(m, std::vector<double>(2 * d + 2, 0.0));
        accumulate_range(points, model, b, e, acc);
        return acc;
      },
      [](Partials a, Partials b) {
        for (std::size_t j = 0; j < a.size(); ++j) {
          for (std::size_t c = 0; c < a[j].size(); ++c) a[j][c] += b[j][c];
        }
        return a;
      });
}

/// M-step from global partials; returns the data log-likelihood.
double update_model(GmmModel& model,
                    const std::vector<std::vector<double>>& partials,
                    double n_total, double min_variance) {
  const std::size_t m = model.means.rows();
  const std::size_t d = model.means.cols();
  for (std::size_t j = 0; j < m; ++j) {
    const auto& p = partials[j];
    const double rsum = p[0];
    if (rsum <= 0.0) continue;  // dead component: keep parameters
    model.weights[j] = rsum / n_total;
    for (std::size_t c = 0; c < d; ++c) {
      const double mean = p[1 + c] / rsum;
      model.means(j, c) = mean;
      const double ex2 = p[1 + d + c] / rsum;
      model.variances(j, c) = std::max(ex2 - mean * mean, min_variance);
    }
  }
  return partials[0][2 * d + 1];
}

GmmModel init_model(const linalg::MatrixD& points, const GmmParams& params) {
  const std::size_t d = points.cols();
  const auto m = static_cast<std::size_t>(params.components);
  GmmModel model;
  model.weights.assign(m, 1.0 / static_cast<double>(m));
  model.means = initial_centers(points, params.components, params.seed);
  // Start from the global per-dimension variance.
  model.variances = linalg::MatrixD(m, d);
  std::vector<double> mean(d, 0.0), var(d, 0.0);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    for (std::size_t c = 0; c < d; ++c) mean[c] += points(i, c);
  }
  for (auto& v : mean) v /= static_cast<double>(points.rows());
  for (std::size_t i = 0; i < points.rows(); ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = points(i, c) - mean[c];
      var[c] += diff * diff;
    }
  }
  for (auto& v : var) {
    v = std::max(v / static_cast<double>(points.rows()), params.min_variance);
  }
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t c = 0; c < d; ++c) model.variances(j, c) = var[c];
  }
  model.log_likelihood = -std::numeric_limits<double>::infinity();
  return model;
}

void validate_params(const linalg::MatrixD& points, const GmmParams& params) {
  PRS_REQUIRE(points.rows() > 0 && points.cols() > 0,
              "GMM needs a non-empty point set");
  PRS_REQUIRE(params.components >= 1, "need at least one component");
  PRS_REQUIRE(static_cast<std::size_t>(params.components) <= points.rows(),
              "more components than points");
  PRS_REQUIRE(params.max_iterations >= 1, "need at least one iteration");
  PRS_REQUIRE(params.epsilon >= 0.0, "epsilon must be non-negative");
}

bool converged(double prev_ll, double ll, double epsilon) {
  if (!std::isfinite(prev_ll)) return false;
  return std::fabs(ll - prev_ll) <=
         epsilon * std::max(1.0, std::fabs(prev_ll));
}

}  // namespace

GmmModel gmm_serial(const linalg::MatrixD& points, const GmmParams& params) {
  validate_params(points, params);
  GmmModel model = init_model(points, params);
  std::vector<std::vector<double>> partials;
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    accumulate_slice(points, model, 0, points.rows(), partials);
    const double ll =
        update_model(model, partials, static_cast<double>(points.rows()),
                     params.min_variance);
    model.iterations = iter + 1;
    const double prev = model.log_likelihood;
    model.log_likelihood = ll;
    if (converged(prev, ll, params.epsilon)) break;
  }
  return model;
}

linalg::MatrixD gmm_responsibilities(const linalg::MatrixD& points,
                                     const GmmModel& model) {
  const std::size_t m = model.means.rows();
  const std::size_t d = model.means.cols();
  linalg::MatrixD resp(points.rows(), m);
  std::vector<double> logp(m);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    std::span<const double> x{points.row(i), d};
    double max_log = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < m; ++j) {
      logp[j] = std::log(model.weights[j]) +
                log_gaussian(x, model.means, model.variances, j);
      max_log = std::max(max_log, logp[j]);
    }
    double sum = 0.0;
    for (std::size_t j = 0; j < m; ++j) sum += std::exp(logp[j] - max_log);
    const double log_norm = max_log + std::log(sum);
    for (std::size_t j = 0; j < m; ++j) {
      resp(i, j) = std::exp(logp[j] - log_norm);
    }
  }
  return resp;
}

double gmm_flops_per_point(int components, std::size_t dims) {
  // Paper convention (Table 5): 11 flops per component-dimension pair per
  // point (log-density quadratic, normalization, three M-step updates).
  return 11.0 * static_cast<double>(components) * static_cast<double>(dims);
}

double gmm_arithmetic_intensity(int components, std::size_t dims) {
  // Table 5: AI(GMM) = 11 * M * D.
  return 11.0 * static_cast<double>(components) * static_cast<double>(dims);
}

GmmSpec gmm_spec(std::shared_ptr<GmmState> state, const GmmParams& params,
                 std::size_t dims) {
  PRS_REQUIRE(state != nullptr, "spec needs a state");
  GmmSpec spec;
  spec.name = "gmm";
  spec.cpu_map = [state](const core::InputSlice& s,
                         core::Emitter<int, std::vector<double>>& e) {
    std::vector<std::vector<double>> partials;
    accumulate_slice(*state->points, state->model, s.begin, s.end, partials);
    for (std::size_t j = 0; j < partials.size(); ++j) {
      e.emit(static_cast<int>(j), std::move(partials[j]));
    }
  };
  spec.modeled_map = [state](const core::InputSlice&,
                             core::Emitter<int, std::vector<double>>& e) {
    for (std::size_t j = 0; j < state->model.means.rows(); ++j) {
      e.emit(static_cast<int>(j), {});
    }
  };
  spec.combine = [](const std::vector<double>& a,
                    const std::vector<double>& b) {
    PRS_CHECK(a.size() == b.size(), "partial size mismatch");
    std::vector<double> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
    return out;
  };
  spec.cpu_flops_per_item = gmm_flops_per_point(params.components, dims);
  spec.gpu_flops_per_item = spec.cpu_flops_per_item;
  spec.ai_cpu = gmm_arithmetic_intensity(params.components, dims);
  spec.ai_gpu = spec.ai_cpu;
  spec.gpu_data_cached = true;  // loop-invariant events cached (§III.C.3)
  spec.item_bytes = static_cast<double>(dims);
  spec.pair_bytes = static_cast<double>(2 * dims + 2);
  spec.reduce_flops_per_pair = static_cast<double>(2 * dims + 2);
  // Per-iteration responsibility rows copied back from the GPU (see the
  // matching note in cmeans.cpp).
  spec.gpu_item_d2h_bytes = static_cast<double>(params.components);
  spec.efficiency = core::calib::kGmm;
  return spec;
}

ckpt::StateCodec gmm_state_codec(std::shared_ptr<GmmState> state) {
  ckpt::StateCodec codec;
  codec.tag = "gmm";
  codec.encode = [state](ckpt::Writer& w) {
    w.u64(state->model.weights.size());
    for (double weight : state->model.weights) w.f64(weight);
    ckpt::put_matrix(w, state->model.means);
    ckpt::put_matrix(w, state->model.variances);
    w.f64(state->model.log_likelihood);
    w.i32(state->model.iterations);
    w.f64(state->min_variance);
  };
  codec.decode = [state](ckpt::Reader& r) {
    GmmModel model;
    const std::uint64_t m = r.u64();
    PRS_REQUIRE(m == state->model.weights.size(),
                "gmm checkpoint component count does not match this run");
    model.weights.resize(m);
    for (auto& weight : model.weights) weight = r.f64();
    ckpt::get_matrix(r, model.means);
    ckpt::get_matrix(r, model.variances);
    PRS_REQUIRE(model.means.rows() == state->model.means.rows() &&
                    model.means.cols() == state->model.means.cols() &&
                    model.variances.rows() == state->model.variances.rows() &&
                    model.variances.cols() == state->model.variances.cols(),
                "gmm checkpoint model shape does not match this run");
    model.log_likelihood = r.f64();
    model.iterations = r.i32();
    const double min_variance = r.f64();
    PRS_REQUIRE(min_variance == state->min_variance,
                "gmm checkpoint was taken with a different min_variance");
    state->model = std::move(model);
  };
  return codec;
}

GmmModel gmm_prs(core::Cluster& cluster, const linalg::MatrixD& points,
                 const GmmParams& params, const core::JobConfig& cfg,
                 core::JobStats* stats_out,
                 const ckpt::CheckpointConfig* checkpoint) {
  validate_params(points, params);
  const std::size_t d = points.cols();

  auto state = std::make_shared<GmmState>();
  state->points = &points;
  state->model = init_model(points, params);
  state->min_variance = params.min_variance;
  GmmSpec spec = gmm_spec(state, params, d);

  auto on_iteration = [&](int iter,
                          const std::map<int, std::vector<double>>& out) {
    if (cfg.mode == core::ExecutionMode::kModeled) return true;
    std::vector<std::vector<double>> partials(
        static_cast<std::size_t>(params.components));
    for (const auto& [k, v] : out) {
      partials[static_cast<std::size_t>(k)] = v;
    }
    const double ll =
        update_model(state->model, partials,
                     static_cast<double>(points.rows()), params.min_variance);
    state->model.iterations = iter + 1;
    const double prev = state->model.log_likelihood;
    state->model.log_likelihood = ll;
    return !converged(prev, ll, params.epsilon);
  };

  // Broadcast per iteration: weights (M) + means (M*D) + variances (M*D).
  const double state_bytes =
      static_cast<double>(params.components) * (1.0 + 2.0 * static_cast<double>(d));
  const ckpt::StateCodec codec = gmm_state_codec(state);
  auto iterative = core::run_iterative<int, std::vector<double>>(
      cluster, spec, cfg, points.rows(), params.max_iterations, on_iteration,
      state_bytes, checkpoint, checkpoint != nullptr ? &codec : nullptr);

  if (cfg.mode == core::ExecutionMode::kModeled) {
    state->model.iterations = iterative.iterations;
  }
  if (stats_out != nullptr) *stats_out = iterative.stats;
  return state->model;
}

core::JobStats gmm_prs_modeled(core::Cluster& cluster, std::size_t n_points,
                               std::size_t dims, const GmmParams& params,
                               core::JobConfig cfg) {
  PRS_REQUIRE(n_points > 0 && dims > 0, "modeled run needs a shape");
  cfg.mode = core::ExecutionMode::kModeled;
  auto state = std::make_shared<GmmState>();
  state->points = nullptr;  // modeled_map never dereferences it
  const auto m = static_cast<std::size_t>(params.components);
  state->model.weights.assign(m, 1.0 / static_cast<double>(m));
  state->model.means = linalg::MatrixD(m, dims, 0.0);
  state->model.variances = linalg::MatrixD(m, dims, 1.0);
  GmmSpec spec = gmm_spec(state, params, dims);

  const double state_bytes =
      static_cast<double>(params.components) *
      (1.0 + 2.0 * static_cast<double>(dims));
  auto iterative = core::run_iterative<int, std::vector<double>>(
      cluster, spec, cfg, n_points, params.max_iterations,
      [](int, const std::map<int, std::vector<double>>&) { return true; },
      state_bytes);
  return iterative.stats;
}

}  // namespace prs::apps
