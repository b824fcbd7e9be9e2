#include "apps/cmeans.hpp"

#include <cmath>
#include <span>

#include "common/error.hpp"
#include "core/calibration.hpp"
#include "exec/parallel.hpp"
#include "exec/prefault.hpp"
#include "linalg/blas.hpp"
#include "simd/kernels.hpp"

namespace prs::apps {
namespace {

/// Host-pool grain for the per-point map loop: ~M*D*5 flops per point, so
/// 256 points amortize the chunk hand-off at the smallest paper shapes
/// while still splitting test-sized inputs across cores.
constexpr std::size_t kMapGrain = 256;

/// Membership weights u_ij^m of one point against all centers (Eq (13)).
/// Returns the per-cluster weights and accumulates the J_m contribution.
/// `ct` is the transposed center pack (ct[c*m + j] = centers(j, c)) so the
/// dispatched distance kernel reads contiguous lanes.
void fuzzy_weights(const double* x, const double* ct, std::size_t m,
                   std::size_t d, const simd::Kernels& kn, double fuzziness,
                   std::vector<double>& weights, double& objective) {
  weights.assign(m, 0.0);

  // Squared distances to every center.
  static thread_local std::vector<double> dist2;
  dist2.assign(m, 0.0);
  kn.dist2_block(x, ct, m, d, dist2.data());
  std::size_t hits = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (dist2[j] == 0.0) ++hits;
  }
  if (hits > 0) {
    // Point coincides with one or more centers (duplicated centers happen
    // with random initialization): the Eq (13) limit splits membership
    // equally across the tied centers, u_ij = 1/T each — not membership
    // 1.0 on whichever zero-distance center the scan saw last. The stored
    // weight is u^m for Eq (14); the J_m contribution is 0 either way.
    const double u = 1.0 / static_cast<double>(hits);
    const double w = std::pow(u, fuzziness);
    for (std::size_t j = 0; j < m; ++j) {
      if (dist2[j] == 0.0) weights[j] = w;
    }
    return;
  }

  // u_ij = 1 / sum_k (||x-c_j|| / ||x-c_k||)^(2/(m-1))   (Eq (13))
  // Using squared distances: ratio^(2/(m-1)) = (d2_j/d2_k)^(1/(m-1)).
  const double inv_exp = 1.0 / (fuzziness - 1.0);
  double denom_sum = 0.0;  // sum_k d2_k^(-1/(m-1))
  for (std::size_t k = 0; k < m; ++k) {
    denom_sum += std::pow(dist2[k], -inv_exp);
  }
  for (std::size_t j = 0; j < m; ++j) {
    const double u = std::pow(dist2[j], -inv_exp) / denom_sum;
    weights[j] = std::pow(u, fuzziness);       // u_ij^m for Eq (14)
    objective += weights[j] * dist2[j];        // Eq (12) contribution
  }
}

/// Serial accumulation of points [begin, end) into zero-initialized
/// per-cluster partials — the per-chunk body of cmeans_accumulate.
void accumulate_range(const linalg::MatrixD& points,
                      const linalg::MatrixD& centers, double fuzziness,
                      std::size_t begin, std::size_t end,
                      std::vector<std::vector<double>>& partials) {
  const std::size_t m = centers.rows();
  const std::size_t d = centers.cols();
  const simd::Kernels& kn = simd::active_kernels();
  static thread_local std::vector<double> ct;
  simd::pack_transposed(centers.row(0), m, d, ct);
  std::vector<double> weights;
  for (std::size_t i = begin; i < end; ++i) {
    double objective = 0.0;
    fuzzy_weights(points.row(i), ct.data(), m, d, kn, fuzziness, weights,
                  objective);
    for (std::size_t j = 0; j < m; ++j) {
      const double w = weights[j];
      if (w == 0.0) continue;
      auto& p = partials[j];
      const double* x = points.row(i);
      kn.axpy_acc(p.data(), x, w, d);
      p[d] += w;
    }
    // The objective is accounted on cluster 0's partial (summed globally).
    partials[0][d + 1] += objective;
  }
}

/// New centers from global partials (Eq (14)); returns max center movement.
double update_centers(linalg::MatrixD& centers,
                      const std::vector<std::vector<double>>& partials) {
  const std::size_t m = centers.rows();
  const std::size_t d = centers.cols();
  double max_move2 = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    const auto& p = partials[j];
    const double wsum = p[d];
    if (wsum <= 0.0) continue;  // empty cluster keeps its center
    double move2 = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double nc = p[c] / wsum;
      const double delta = nc - centers(j, c);
      move2 += delta * delta;
      centers(j, c) = nc;
    }
    max_move2 = std::max(max_move2, move2);
  }
  return std::sqrt(max_move2);
}

std::vector<int> hard_assignment(const linalg::MatrixD& points,
                                 const linalg::MatrixD& centers) {
  // argmax_j u_ij == argmin_j ||x_i - c_j|| for any fuzziness > 1.
  const std::size_t d = points.cols();
  const std::size_t m = centers.rows();
  const simd::Kernels& kn = simd::active_kernels();
  std::vector<double> ct;
  simd::pack_transposed(centers.row(0), m, d, ct);
  std::vector<double> dist2(m);
  std::vector<int> out(points.rows());
  for (std::size_t i = 0; i < points.rows(); ++i) {
    kn.dist2_block(points.row(i), ct.data(), m, d, dist2.data());
    double best = std::numeric_limits<double>::infinity();
    int arg = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (dist2[j] < best) {
        best = dist2[j];
        arg = static_cast<int>(j);
      }
    }
    out[i] = arg;
  }
  return out;
}

void validate_params(const linalg::MatrixD& points,
                     const CmeansParams& params) {
  PRS_REQUIRE(points.rows() > 0 && points.cols() > 0,
              "C-means needs a non-empty point set");
  PRS_REQUIRE(params.clusters >= 1, "need at least one cluster");
  PRS_REQUIRE(static_cast<std::size_t>(params.clusters) <= points.rows(),
              "more clusters than points");
  PRS_REQUIRE(params.fuzziness > 1.0, "fuzziness must exceed 1");
  PRS_REQUIRE(params.max_iterations >= 1, "need at least one iteration");
}

}  // namespace

void cmeans_accumulate(const linalg::MatrixD& points,
                       const linalg::MatrixD& centers, double fuzziness,
                       std::size_t begin, std::size_t end,
                       std::vector<std::vector<double>>& partials) {
  const std::size_t m = centers.rows();
  const std::size_t d = centers.cols();
  using Partials = std::vector<std::vector<double>>;
  if (begin >= end) {
    partials.assign(m, std::vector<double>(d + 2, 0.0));
    return;
  }
  // Fixed chunking + fixed-order tree combine (exec/parallel.hpp): the
  // same bytes come out for any host thread count.
  partials = exec::parallel_reduce(
      begin, end, kMapGrain, Partials{},
      [&](std::size_t b, std::size_t e, Partials acc) {
        acc.assign(m, std::vector<double>(d + 2, 0.0));
        accumulate_range(points, centers, fuzziness, b, e, acc);
        return acc;
      },
      [](Partials a, Partials b) {
        for (std::size_t j = 0; j < a.size(); ++j) {
          for (std::size_t c = 0; c < a[j].size(); ++c) a[j][c] += b[j][c];
        }
        return a;
      });
}

linalg::MatrixD initial_centers(const linalg::MatrixD& points, int clusters,
                                std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  // Distinct random indices (Floyd's algorithm keeps it O(M)).
  std::vector<std::size_t> picks;
  for (std::size_t j = n - static_cast<std::size_t>(clusters); j < n; ++j) {
    std::size_t t = rng.uniform_index(j + 1);
    if (std::find(picks.begin(), picks.end(), t) != picks.end()) t = j;
    picks.push_back(t);
  }
  linalg::MatrixD centers(static_cast<std::size_t>(clusters), d);
  for (std::size_t j = 0; j < picks.size(); ++j) {
    for (std::size_t c = 0; c < d; ++c) {
      centers(j, c) = points(picks[j], c);
    }
  }
  return centers;
}

CmeansResult cmeans_serial(const linalg::MatrixD& points,
                           const CmeansParams& params) {
  validate_params(points, params);
  CmeansResult res;
  res.centers = initial_centers(points, params.clusters, params.seed);

  std::vector<std::vector<double>> partials;
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    cmeans_accumulate(points, res.centers, params.fuzziness, 0,
                      points.rows(), partials);
    res.objective =
        partials[0][points.cols() + 1];
    const double move = update_centers(res.centers, partials);
    res.iterations = iter + 1;
    if (move < params.epsilon) break;
  }
  res.assignment = hard_assignment(points, res.centers);
  return res;
}

double cmeans_flops_per_point(int clusters, std::size_t dims) {
  // Paper convention: ~5 flops per cluster-dimension pair per point
  // (distances 3MD + weighted accumulation 2MD; the O(M^2)-free Eq (13)
  // form above matches it).
  return 5.0 * static_cast<double>(clusters) * static_cast<double>(dims);
}

double cmeans_arithmetic_intensity(int clusters) {
  // Table 5: AI(C-means) = 5 * M.
  return 5.0 * static_cast<double>(clusters);
}

CmeansSpec cmeans_spec(std::shared_ptr<CmeansState> state,
                       const CmeansParams& params, std::size_t dims) {
  PRS_REQUIRE(state != nullptr, "spec needs a state");
  CmeansSpec spec;
  spec.name = "cmeans";
  spec.cpu_map = [state](const core::InputSlice& s,
                         core::Emitter<int, std::vector<double>>& e) {
    std::vector<std::vector<double>> partials;
    cmeans_accumulate(*state->points, state->centers, state->fuzziness,
                      s.begin, s.end, partials);
    for (std::size_t j = 0; j < partials.size(); ++j) {
      e.emit(static_cast<int>(j), std::move(partials[j]));
    }
  };
  // The CUDA kernels compute the same partials (paper: source often
  // identical across backends), so gpu_map stays unset: it defaults to
  // cpu_map.
  spec.modeled_map = [state](const core::InputSlice&,
                             core::Emitter<int, std::vector<double>>& e) {
    for (std::size_t j = 0; j < state->centers.rows(); ++j) {
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

  spec.cpu_flops_per_item = cmeans_flops_per_point(params.clusters, dims);
  spec.gpu_flops_per_item = spec.cpu_flops_per_item;
  spec.ai_cpu = cmeans_arithmetic_intensity(params.clusters);
  spec.ai_gpu = spec.ai_cpu;
  spec.gpu_data_cached = true;  // event matrix cached in GPU memory (§IV.A.1)
  spec.item_bytes = static_cast<double>(dims);  // element-counted row
  spec.pair_bytes = static_cast<double>(dims + 2);
  spec.reduce_flops_per_pair = static_cast<double>(dims + 2);
  // Per-iteration membership rows (M elements per point) copied back from
  // the GPU — the PRS generality cost behind Table 3's PRS-vs-MPI gap; the
  // hand-written MPI/GPU baseline keeps them resident.
  spec.gpu_item_d2h_bytes = static_cast<double>(params.clusters);
  spec.efficiency = core::calib::kCmeans;
  return spec;
}

ckpt::StateCodec cmeans_state_codec(std::shared_ptr<CmeansState> state,
                                    double* objective, int* iterations) {
  ckpt::StateCodec codec;
  codec.tag = "cmeans";
  codec.encode = [state, objective, iterations](ckpt::Writer& w) {
    ckpt::put_matrix(w, state->centers);
    w.f64(state->fuzziness);
    w.f64(objective != nullptr ? *objective : 0.0);
    w.i32(iterations != nullptr ? *iterations : 0);
  };
  codec.decode = [state, objective, iterations](ckpt::Reader& r) {
    linalg::MatrixD centers;
    ckpt::get_matrix(r, centers);
    PRS_REQUIRE(centers.rows() == state->centers.rows() &&
                    centers.cols() == state->centers.cols(),
                "cmeans checkpoint centers shape does not match this run");
    const double fuzziness = r.f64();
    PRS_REQUIRE(fuzziness == state->fuzziness,
                "cmeans checkpoint was taken with a different fuzziness");
    state->centers = std::move(centers);
    const double obj = r.f64();
    const int iters = r.i32();
    if (objective != nullptr) *objective = obj;
    if (iterations != nullptr) *iterations = iters;
  };
  return codec;
}

CmeansResult cmeans_prs(core::Cluster& cluster, const linalg::MatrixD& points,
                        const CmeansParams& params,
                        const core::JobConfig& cfg,
                        core::JobStats* stats_out,
                        const ckpt::CheckpointConfig* checkpoint) {
  validate_params(points, params);
  const std::size_t d = points.cols();

  // NUMA mode: walk the points matrix from the lanes that will iterate
  // over it, so each socket's caches/TLBs are primed with its share
  // before the first accumulate pass (no-op when PRS_NUMA is off).
  exec::prefault_first_touch(points.data(),
                             points.rows() * points.cols() * sizeof(double));

  auto state = std::make_shared<CmeansState>();
  state->points = &points;
  state->centers = initial_centers(points, params.clusters, params.seed);
  state->fuzziness = params.fuzziness;
  CmeansSpec spec = cmeans_spec(state, params, d);

  CmeansResult res;
  auto on_iteration = [&](int iter,
                          const std::map<int, std::vector<double>>& out) {
    if (cfg.mode == core::ExecutionMode::kModeled) {
      return true;  // no numeric content to converge on
    }
    std::vector<std::vector<double>> partials(
        static_cast<std::size_t>(params.clusters));
    for (const auto& [k, v] : out) {
      partials[static_cast<std::size_t>(k)] = v;
    }
    res.objective = partials[0][d + 1];
    const double move = update_centers(state->centers, partials);
    res.iterations = iter + 1;
    return move >= params.epsilon;
  };

  const ckpt::StateCodec codec =
      cmeans_state_codec(state, &res.objective, &res.iterations);
  auto iterative = core::run_iterative<int, std::vector<double>>(
      cluster, spec, cfg, points.rows(), params.max_iterations, on_iteration,
      /*state_bytes=*/static_cast<double>(params.clusters) *
          static_cast<double>(d),
      checkpoint, checkpoint != nullptr ? &codec : nullptr);

  res.centers = state->centers;
  if (cfg.mode == core::ExecutionMode::kFunctional) {
    res.assignment = hard_assignment(points, res.centers);
  } else {
    res.iterations = iterative.iterations;
  }
  if (stats_out != nullptr) *stats_out = iterative.stats;
  return res;
}

core::JobStats cmeans_prs_modeled(core::Cluster& cluster,
                                  std::size_t n_points, std::size_t dims,
                                  const CmeansParams& params,
                                  core::JobConfig cfg) {
  PRS_REQUIRE(n_points > 0 && dims > 0, "modeled run needs a shape");
  cfg.mode = core::ExecutionMode::kModeled;
  auto state = std::make_shared<CmeansState>();
  state->points = nullptr;  // modeled_map never dereferences it
  state->centers = linalg::MatrixD(static_cast<std::size_t>(params.clusters),
                                   dims, 0.0);
  state->fuzziness = params.fuzziness;
  CmeansSpec spec = cmeans_spec(state, params, dims);

  auto iterative = core::run_iterative<int, std::vector<double>>(
      cluster, spec, cfg, n_points, params.max_iterations,
      [](int, const std::map<int, std::vector<double>>&) { return true; },
      static_cast<double>(params.clusters) * static_cast<double>(dims));
  return iterative.stats;
}

}  // namespace prs::apps
