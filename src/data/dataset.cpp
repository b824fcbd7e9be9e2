#include "data/dataset.hpp"

#include <cmath>

#include "common/error.hpp"
#include "exec/parallel.hpp"

namespace prs::data {
namespace {

/// Elements per chunk of the uniform fills: ~64K draws (512 KB of output)
/// amortize a chunk's jump-ahead and hand-off.
constexpr std::size_t kUniformGrain = std::size_t{1} << 16;

/// Draws per mixture chunk: a normal costs several uniforms' time, so
/// fewer draws fill a chunk.
constexpr std::size_t kMixtureChunkDraws = std::size_t{1} << 14;

/// out[i] = lo + (hi - lo) * uniform(), one draw per element.
void fill_uniform(Rng& rng, double* out, std::size_t n, double lo,
                  double hi) {
  PRS_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  const double span = hi - lo;
  generate_chunked(rng, n, kUniformGrain, 1,
                   [out, lo, span](Rng& r, std::size_t b, std::size_t e) {
                     for (std::size_t i = b; i < e; ++i) {
                       out[i] = lo + span * r.uniform();
                     }
                   });
}

}  // namespace

std::size_t mixture_grain(std::size_t d) {
  // Even, so that i * d is even at every chunk start and no Box–Muller
  // value is cached there when d is odd.
  const std::size_t points = kMixtureChunkDraws / (1 + d);
  return points < 2 ? 2 : points + points % 2;
}

void generate_chunked(Rng& rng, std::size_t n, std::size_t grain,
                      std::uint64_t draws_per_item, const ChunkFill& fill) {
  const std::size_t chunks = exec::chunk_count(n, grain);
  if (chunks == 0) return;
  std::vector<Rng> starts(chunks), ends(chunks);
  exec::parallel_for(0, n, grain, [&](std::size_t b, std::size_t e) {
    const std::size_t c = b / grain;
    Rng r = rng;
    r.advance(b * draws_per_item);
    starts[c] = r;
    fill(r, b, e);
    ends[c] = r;
  });
  // A chunk that started in the serial state made exactly the serial
  // output; so did the next one if it started where this one ended. At
  // the first chunk that did not (a rejected normal draw shifted its
  // stream), this chunk's end is the serial state: redo the rest from it.
  for (std::size_t c = 0; c + 1 < chunks; ++c) {
    if (!(ends[c] == starts[c + 1])) {
      rng = ends[c];
      fill(rng, (c + 1) * grain, n);
      return;
    }
  }
  rng = ends.back();
}

Dataset sample_gaussian_mixture(Rng& rng, std::size_t n,
                                const std::vector<GaussianComponent>& comps) {
  PRS_REQUIRE(!comps.empty(), "mixture needs at least one component");
  const std::size_t d = comps.front().mean.size();
  double total_weight = 0.0;
  for (const auto& c : comps) {
    PRS_REQUIRE(c.mean.size() == d && c.stddev.size() == d,
                "all components must share the dimensionality");
    PRS_REQUIRE(c.weight > 0.0, "component weights must be positive");
    for (const double sd : c.stddev) {
      PRS_REQUIRE(sd >= 0.0, "normal stddev must be non-negative");
    }
    total_weight += c.weight;
  }

  Dataset ds;
  // Every element is written below, each chunk's rows by their own lane.
  ds.points = linalg::MatrixD::uninitialized(n, d);
  ds.labels.resize(n);
  ds.num_clusters = static_cast<int>(comps.size());

  // Point i draws one uniform, then d normals: 1 + d draws per point.
  double* const points = ds.points.data();
  int* const labels = ds.labels.data();
  const auto fill = [&](Rng& r, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // Pick the component by weight.
      double u = r.uniform() * total_weight;
      std::size_t k = 0;
      for (; k + 1 < comps.size(); ++k) {
        if (u < comps[k].weight) break;
        u -= comps[k].weight;
      }
      const auto& c = comps[k];
      double* const row = points + i * d;
      for (std::size_t j = 0; j < d; ++j) {
        row[j] = c.mean[j] + c.stddev[j] * r.normal();
      }
      labels[i] = static_cast<int>(k);
    }
  };
  generate_chunked(rng, n, mixture_grain(d), 1 + d, fill);
  return ds;
}

Dataset generate_flame_like(Rng& rng, std::size_t n) {
  // Five overlapping, anisotropic 4-D Gaussians with unequal weights,
  // mimicking the lymphocyte subpopulations in the FLAME data set: two
  // large nearby populations, two medium, one small tight one.
  std::vector<GaussianComponent> comps = {
      {0.34, {0.0, 0.0, 0.0, 0.0}, {1.2, 0.8, 1.0, 0.6}},
      {0.27, {2.4, 1.2, -0.5, 0.8}, {0.9, 1.3, 0.7, 1.0}},
      {0.18, {-2.2, 2.6, 1.4, -1.0}, {0.7, 0.6, 1.1, 0.8}},
      {0.14, {1.0, -2.8, 2.2, 1.6}, {1.0, 0.9, 0.5, 0.7}},
      {0.07, {-1.2, -1.6, -2.4, 2.8}, {0.4, 0.5, 0.4, 0.5}},
  };
  return sample_gaussian_mixture(rng, n, comps);
}

Dataset generate_blobs(Rng& rng, std::size_t n, std::size_t d, int k,
                       double separation, double sigma) {
  PRS_REQUIRE(k >= 1, "need at least one blob");
  std::vector<GaussianComponent> comps;
  comps.reserve(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c) {
    GaussianComponent g;
    g.weight = 1.0;
    g.mean.resize(d);
    g.stddev.assign(d, sigma);
    // Place centers on a randomized lattice so any d, k combination stays
    // separated by ~`separation`.
    for (std::size_t j = 0; j < d; ++j) {
      const double base =
          separation * static_cast<double>((c >> (j % 8)) & 1 ? c : -c);
      g.mean[j] = base + rng.uniform(-0.1, 0.1) * separation;
    }
    comps.push_back(std::move(g));
  }
  return sample_gaussian_mixture(rng, n, comps);
}

linalg::MatrixD random_matrix(Rng& rng, std::size_t rows, std::size_t cols,
                              double lo, double hi) {
  auto m = linalg::MatrixD::uninitialized(rows, cols);
  fill_uniform(rng, m.data(), m.size(), lo, hi);
  return m;
}

std::vector<double> random_vector(Rng& rng, std::size_t n, double lo,
                                  double hi) {
  std::vector<double> v(n);
  fill_uniform(rng, v.data(), n, lo, hi);
  return v;
}

}  // namespace prs::data
