// Point-set containers and synthetic data generators.
//
// The paper evaluates clustering on a FLAME flow-cytometry Lymphocytes data
// set (20054 points, 4 dimensions, 5 clusters) that we cannot redistribute;
// generate_flame_like() produces a Gaussian mixture with the same shape
// (overlapping anisotropic clusters, same N/D/K) and ground-truth labels so
// that the Figure 5 quality comparison is quantitative (see DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace prs::data {

/// A labelled point set: N points of dimension D, row-major.
struct Dataset {
  linalg::MatrixD points;           // N x D
  std::vector<int> labels;          // ground truth, size N (may be empty)
  int num_clusters = 0;             // ground-truth cluster count (0 unknown)

  std::size_t size() const { return points.rows(); }
  std::size_t dims() const { return points.cols(); }
};

/// One mixture component with diagonal covariance.
struct GaussianComponent {
  double weight = 1.0;              // mixing proportion (normalized on use)
  std::vector<double> mean;         // D
  std::vector<double> stddev;       // D (per-dimension sigma)
};

/// Samples `n` points from the mixture; labels record the component.
Dataset sample_gaussian_mixture(Rng& rng, std::size_t n,
                                const std::vector<GaussianComponent>& comps);

/// Synthetic stand-in for the FLAME Lymphocytes set: 4-D, 5 overlapping
/// anisotropic clusters, default 20054 points (paper §IV.A.1).
Dataset generate_flame_like(Rng& rng, std::size_t n = 20054);

/// `k` well-separated spherical clusters in `d` dimensions (easy case for
/// correctness tests).
Dataset generate_blobs(Rng& rng, std::size_t n, std::size_t d, int k,
                       double separation = 10.0, double sigma = 1.0);

/// Uniform random matrix entries in [lo, hi] (GEMV/GEMM inputs).
linalg::MatrixD random_matrix(Rng& rng, std::size_t rows, std::size_t cols,
                              double lo = -1.0, double hi = 1.0);

/// Uniform random vector.
std::vector<double> random_vector(Rng& rng, std::size_t n, double lo = -1.0,
                                  double hi = 1.0);

/// Fills items [b, e) drawing from `rng` in item order.
using ChunkFill = std::function<void(Rng& rng, std::size_t b, std::size_t e)>;

/// Runs fill(rng, 0, n) as fixed chunks of `grain` items on the host pool,
/// with the same output and the same end state of `rng` (DESIGN.md
/// "Generator determinism"). Chunk c starts from `rng` advanced by
/// c * grain * draws_per_item draws. From the first chunk whose end state
/// is not the next chunk's start (a rejected normal draw, or a cached
/// normal at the boundary), the rest is filled serially, so only speed
/// depends on `fill` making exactly draws_per_item draws per item.
void generate_chunked(Rng& rng, std::size_t n, std::size_t grain,
                      std::uint64_t draws_per_item, const ChunkFill& fill);

/// Points per chunk of sample_gaussian_mixture in `d` dimensions (even).
std::size_t mixture_grain(std::size_t d);

}  // namespace prs::data
