// Unit tests for data generators and clustering-quality metrics.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <set>

#include "apps/wordcount.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "data/dataset.hpp"
#include "data/metrics.hpp"
#include "exec/thread_pool.hpp"

namespace prs::data {
namespace {

// -- rng jump-ahead ------------------------------------------------------------

/// One xoshiro256 step backwards: the state s with next() taking s to `n`.
Rng::State inverse_step(const Rng::State& n) {
  const std::uint64_t a3 = std::rotr(n[3], 45);  // s3 ^ s1
  const std::uint64_t s0 = n[0] ^ a3;
  // n1 ^ n2 == s1 ^ (s1 << 17); undo the xorshift.
  const std::uint64_t y = n[1] ^ n[2];
  const std::uint64_t s1 = y ^ (y << 17) ^ (y << 34) ^ (y << 51);
  return {s0, s1, n[1] ^ s1 ^ s0, a3 ^ s1};
}

void expect_same_stream(Rng a, Rng b, std::uint64_t n) {
  EXPECT_EQ(a.state(), b.state()) << "n = " << n;
  for (int k = 0; k < 4; ++k) EXPECT_EQ(a.next(), b.next()) << "n = " << n;
}

TEST(Rng, AdvanceMatchesRepeatedNext) {
  const auto stepped = [](Rng r, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) r.next();
    return r;
  };
  const auto advanced = [](Rng r, std::uint64_t n) {
    r.advance(n);
    return r;
  };
  // Directly against next() up to 2^22 + 1 steps.
  std::vector<std::uint64_t> direct = {0, 1, 2, 255, 256, 257};
  for (int k = 2; k <= 22; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    direct.insert(direct.end(), {p - 1, p, p + 1});
  }
  Rng pick(99);
  for (int i = 0; i < 6; ++i) direct.push_back(pick.uniform_index(1u << 20));
  for (const std::uint64_t seed : {1ull, 0x5eedull}) {
    const Rng r(seed);
    for (const std::uint64_t n : direct) {
      expect_same_stream(advanced(r, n), stepped(r, n), n);
    }
  }
  // Beyond, by induction on k: advance(2^k) is advance(2^(k-1)) twice,
  // and 2^k +- 1 is one next() either side of it.
  const Rng r(7);
  for (int k = 23; k <= 40; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    expect_same_stream(advanced(r, p), advanced(advanced(r, p / 2), p / 2),
                       p);
    expect_same_stream(advanced(r, p + 1), stepped(advanced(r, p), 1), p + 1);
    expect_same_stream(stepped(advanced(r, p - 1), 1), advanced(r, p), p - 1);
  }
  // Random large n: any split of n into two jumps lands on the same state.
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t n = pick.next();
    const std::uint64_t m = pick.uniform_index(n);
    expect_same_stream(advanced(r, n), advanced(advanced(r, m), n - m), n);
  }
}

TEST(Rng, AdvanceKeepsThePendingNormal) {
  Rng a(3), b(3);
  (void)a.normal();
  (void)b.normal();
  a.advance(1000);
  for (int i = 0; i < 1000; ++i) b.next();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.normal(), b.normal());
}

TEST(Rng, EqualityIncludesThePendingNormal) {
  Rng a(5), b(5);
  EXPECT_TRUE(a == b);
  (void)a.normal();  // two draws, second variate cached
  EXPECT_FALSE(a == b);
  b.next();
  b.next();
  EXPECT_FALSE(a == b);  // same engine state, no cached variate
  (void)a.normal();      // consumes the cache
  EXPECT_TRUE(a == b);
}

TEST(Rng, FromStateAndInverseStep) {
  Rng r(11);
  const Rng::State before = r.state();
  r.next();
  EXPECT_EQ(inverse_step(r.state()), before);
  EXPECT_TRUE(Rng::from_state(before) == Rng(11));
  EXPECT_THROW((void)Rng::from_state({0, 0, 0, 0}), InvalidArgument);
}

// -- chunked generators ------------------------------------------------------

/// Restores the default pool size when a test is done resizing it.
struct PoolGuard {
  ~PoolGuard() { exec::ThreadPool::instance().configure(0); }
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv(const void* p, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Folds the generator's end state into `h`: the next normal (the cached
/// variate, if one is pending) and the next raw draw.
std::uint64_t fnv_tail(Rng& rng, std::uint64_t h) {
  const double z = rng.normal();
  h = fnv(&z, sizeof z, h);
  const std::uint64_t x = rng.next();
  return fnv(&x, sizeof x, h);
}

std::uint64_t blobs_digest(std::uint64_t seed, std::size_t n, std::size_t d,
                           int k) {
  Rng rng(seed);
  const Dataset ds = generate_blobs(rng, n, d, k);
  std::uint64_t h = fnv(ds.points.data(), ds.points.size() * sizeof(double),
                        kFnvBasis);
  h = fnv(ds.labels.data(), ds.labels.size() * sizeof(int), h);
  return fnv_tail(rng, h);
}

// Pins captured from the serial generators, before they ran on the pool.
TEST(Generators, ByteIdenticalAcrossThreads) {
  PoolGuard guard;
  // Point counts below are not multiples of their grains.
  ASSERT_NE(1001 % mixture_grain(100), 0u);
  ASSERT_NE(20001 % mixture_grain(3), 0u);
  ASSERT_GT(1001 / mixture_grain(100), 1u);
  ASSERT_GT(20001 / mixture_grain(3), 1u);
  for (const int threads : {1, 2, 4}) {
    exec::ThreadPool::instance().configure(threads);
    SCOPED_TRACE(threads);
    EXPECT_EQ(blobs_digest(2024, 1001, 100, 5), 0xe5cb22dbc06e2244ull);
    // Odd d: 20001 * 3 normals leave the last variate cached.
    EXPECT_EQ(blobs_digest(77, 20001, 3, 4), 0xffacc6d320eabb1aull);
    EXPECT_EQ(blobs_digest(31, 7777, 5, 3), 0xc49ee448ac019ae2ull);
    {
      // gemv's order: the vector is drawn where the matrix left off.
      Rng rng(5);
      const auto m = random_matrix(rng, 517, 300);
      const auto v = random_vector(rng, 100003, -2.0, 3.0);
      std::uint64_t h = fnv(m.data(), m.size() * sizeof(double), kFnvBasis);
      h = fnv(v.data(), v.size() * sizeof(double), h);
      EXPECT_EQ(fnv_tail(rng, h), 0x6f5ad464b84e5760ull);
    }
    {
      Rng rng(9);
      const auto corpus = apps::generate_corpus(rng, 3001, 8, 500);
      std::uint64_t h = kFnvBasis;
      for (const auto& line : corpus) {
        h = fnv(line.data(), line.size(), h);
        h = fnv("\n", 1, h);
      }
      EXPECT_EQ(fnv_tail(rng, h), 0x9ac5128b6a745aadull);
    }
  }
}

TEST(Generators, RejectionFallsBackSerially) {
  PoolGuard guard;
  // One 2-D component: point i draws the pick uniform at offset 3i, then
  // the Box–Muller pair u1, u2 at 3i + 1 and 3i + 2.
  const std::vector<GaussianComponent> comps = {
      {1.0, {1.0, -2.0}, {0.5, 3.0}}};
  const std::size_t grain = mixture_grain(2);
  const std::size_t n = 3 * grain + 17;
  const std::size_t zero_point = grain + grain / 2;  // inside chunk 1

  // A state whose next draw is 0: the output scrambles s[1] by odd
  // multipliers and a rotation, so s[1] == 0 gives next() == 0.
  const Rng::State zero = {0x243f6a8885a308d3ull, 0, 0x13198a2e03707344ull,
                           0xa4093822299f31d0ull};
  ASSERT_EQ(Rng::from_state(zero).uniform(), 0.0);
  Rng::State seed = zero;
  for (std::size_t i = 0; i < 3 * zero_point + 1; ++i) {
    seed = inverse_step(seed);
  }

  // The serial loop the generator must reproduce.
  Rng serial = Rng::from_state(seed);
  linalg::MatrixD want(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    (void)serial.uniform();
    for (std::size_t j = 0; j < 2; ++j) {
      want(i, j) = comps[0].mean[j] + comps[0].stddev[j] * serial.normal();
    }
  }
  // The rejected u1 cost one extra draw: later chunks start off by one.
  Rng unshifted = Rng::from_state(seed);
  unshifted.advance(3 * n);
  ASSERT_FALSE(unshifted == serial);

  for (const int threads : {1, 2, 4}) {
    exec::ThreadPool::instance().configure(threads);
    SCOPED_TRACE(threads);
    Rng rng = Rng::from_state(seed);
    const Dataset ds = sample_gaussian_mixture(rng, n, comps);
    EXPECT_EQ(std::memcmp(ds.points.data(), want.data(),
                          want.size() * sizeof(double)),
              0);
    EXPECT_TRUE(rng == serial);
  }
}

TEST(Generators, GaussianMixtureShapeAndLabels) {
  Rng rng(1);
  std::vector<GaussianComponent> comps = {
      {0.5, {0.0, 0.0}, {1.0, 1.0}},
      {0.5, {10.0, 10.0}, {1.0, 1.0}},
  };
  Dataset ds = sample_gaussian_mixture(rng, 1000, comps);
  EXPECT_EQ(ds.size(), 1000u);
  EXPECT_EQ(ds.dims(), 2u);
  EXPECT_EQ(ds.labels.size(), 1000u);
  EXPECT_EQ(ds.num_clusters, 2);
  std::set<int> labels(ds.labels.begin(), ds.labels.end());
  EXPECT_EQ(labels, (std::set<int>{0, 1}));
}

TEST(Generators, MixtureRespectsComponentMoments) {
  Rng rng(2);
  std::vector<GaussianComponent> comps = {
      {1.0, {5.0, -3.0}, {2.0, 0.5}},
  };
  Dataset ds = sample_gaussian_mixture(rng, 20000, comps);
  StatsAccumulator d0, d1;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    d0.add(ds.points(i, 0));
    d1.add(ds.points(i, 1));
  }
  EXPECT_NEAR(d0.mean(), 5.0, 0.05);
  EXPECT_NEAR(d0.stddev(), 2.0, 0.05);
  EXPECT_NEAR(d1.mean(), -3.0, 0.02);
  EXPECT_NEAR(d1.stddev(), 0.5, 0.02);
}

TEST(Generators, MixtureWeightsControlProportions) {
  Rng rng(3);
  std::vector<GaussianComponent> comps = {
      {0.8, {0.0}, {1.0}},
      {0.2, {100.0}, {1.0}},
  };
  Dataset ds = sample_gaussian_mixture(rng, 10000, comps);
  const auto c0 = static_cast<double>(
      std::count(ds.labels.begin(), ds.labels.end(), 0));
  EXPECT_NEAR(c0 / 10000.0, 0.8, 0.02);
}

TEST(Generators, FlameLikeMatchesPaperShape) {
  Rng rng(4);
  Dataset ds = generate_flame_like(rng);
  EXPECT_EQ(ds.size(), 20054u);  // paper §IV.A.1
  EXPECT_EQ(ds.dims(), 4u);
  EXPECT_EQ(ds.num_clusters, 5);
}

TEST(Generators, BlobsAreWellSeparated) {
  Rng rng(5);
  Dataset ds = generate_blobs(rng, 600, 3, 3, 20.0, 0.5);
  EXPECT_EQ(ds.num_clusters, 3);
  // With separation >> sigma the ground truth labels should be perfectly
  // recoverable by nearest-true-center: overlap metric with itself is 1.
  EXPECT_DOUBLE_EQ(overlap_with_reference(ds.labels, ds.labels), 1.0);
}

TEST(Generators, DeterministicGivenSeed) {
  Rng a(42), b(42);
  Dataset d1 = generate_flame_like(a, 500);
  Dataset d2 = generate_flame_like(b, 500);
  EXPECT_EQ(d1.points, d2.points);
  EXPECT_EQ(d1.labels, d2.labels);
}

TEST(Generators, RandomMatrixAndVectorBounds) {
  Rng rng(6);
  auto m = random_matrix(rng, 10, 20, -2.0, 3.0);
  EXPECT_EQ(m.rows(), 10u);
  EXPECT_EQ(m.cols(), 20u);
  for (double v : m.storage()) {
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
  auto v = random_vector(rng, 50);
  EXPECT_EQ(v.size(), 50u);
}

// -- metrics -----------------------------------------------------------------

TEST(Metrics, AverageClusterWidthHandComputed) {
  linalg::MatrixD points(2, 1);
  points(0, 0) = 0.0;
  points(1, 0) = 4.0;
  linalg::MatrixD centers(1, 1);
  centers(0, 0) = 1.0;
  // distances 1 and 3 -> mean 2.
  EXPECT_DOUBLE_EQ(average_cluster_width(points, {0, 0}, centers), 2.0);
}

TEST(Metrics, WidthRejectsBadAssignment) {
  linalg::MatrixD points(2, 1), centers(1, 1);
  EXPECT_THROW(average_cluster_width(points, {0}, centers), InvalidArgument);
  EXPECT_THROW(average_cluster_width(points, {0, 5}, centers),
               InvalidArgument);
}

TEST(Metrics, OverlapPerfectAndPermuted) {
  std::vector<int> ref{0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(overlap_with_reference(ref, ref), 1.0);
  // Relabelled partitions are still a perfect match.
  std::vector<int> permuted{2, 2, 0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(overlap_with_reference(permuted, ref), 1.0);
}

TEST(Metrics, OverlapDegradesWithMistakes) {
  std::vector<int> ref{0, 0, 0, 0, 1, 1, 1, 1};
  std::vector<int> ok{0, 0, 0, 0, 1, 1, 1, 1};
  std::vector<int> one_err{0, 0, 0, 1, 1, 1, 1, 1};
  std::vector<int> merged(8, 0);
  const double s_ok = overlap_with_reference(ok, ref);
  const double s_err = overlap_with_reference(one_err, ref);
  const double s_merged = overlap_with_reference(merged, ref);
  EXPECT_GT(s_ok, s_err);
  EXPECT_GT(s_err, s_merged);
}

TEST(Metrics, PurityMajorityVote) {
  std::vector<int> computed{0, 0, 0, 1, 1, 1};
  std::vector<int> ref{0, 0, 1, 1, 1, 1};
  // Cluster 0: majority ref 0 (2 of 3); cluster 1: majority ref 1 (3 of 3).
  EXPECT_NEAR(purity(computed, ref), 5.0 / 6.0, 1e-12);
}

TEST(Metrics, AdjustedRandIndexKnownValues) {
  std::vector<int> a{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, a), 1.0);
  std::vector<int> perm{1, 1, 0, 0};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, perm), 1.0);
  // Merging everything into one cluster scores 0: no information beyond
  // the chance-level agreement the adjustment subtracts.
  std::vector<int> merged{0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(adjusted_rand_index(a, merged), 0.0);
  std::vector<int> half{0, 1, 0, 1};
  EXPECT_LT(adjusted_rand_index(a, half), 0.5);
}

TEST(Metrics, LabelingsMustAlign) {
  EXPECT_THROW(overlap_with_reference({0, 1}, {0}), InvalidArgument);
  EXPECT_THROW(purity({}, {}), InvalidArgument);
}

}  // namespace
}  // namespace prs::data
