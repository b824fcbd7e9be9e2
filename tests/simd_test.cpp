// SIMD kernel layer tests (DESIGN.md §4j).
//
// The load-bearing property is the determinism contract: every kernel in
// the deterministic tier must produce BIT-IDENTICAL results at scalar,
// AVX2 and AVX-512 — these tests compare raw bytes, not tolerances. The
// fma tier (reachable only behind fma_allowed()) is held to ULP-style
// relative bounds instead. On hosts without AVX-512 (or AVX2) the
// corresponding sweeps skip; CI runs the scalar and AVX2 legs explicitly
// via PRS_SIMD.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/schedule_policy.hpp"
#include "exec/thread_pool.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "roofline/analytic_scheduler.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "simd/scalar_ref.hpp"
#include "svc/job_spec.hpp"
#include "svc/launcher.hpp"

namespace prs {
namespace {

/// Deterministic fill that exercises varied magnitudes without RNG state.
double synth(std::size_t i, double lo = -4.0) {
  const double t = static_cast<double>((i * 2654435761u) % 1000) / 1000.0;
  return lo + 9.0 * t + 1e-3 * static_cast<double>(i % 7);
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  if (simd::level_supported(simd::Level::kAvx2)) {
    out.push_back(simd::Level::kAvx2);
  }
  if (simd::level_supported(simd::Level::kAvx512)) {
    out.push_back(simd::Level::kAvx512);
  }
  return out;
}

/// Restores dispatch state around every test so the suite order and the
/// ambient PRS_SIMD/PRS_SIMD_FMA of a CI leg never leak between cases.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::clear_level_override();
    simd::clear_fma_override();
  }
};

// -- dispatch ----------------------------------------------------------------

TEST_F(SimdTest, ParseLevelNamesAndAuto) {
  EXPECT_EQ(simd::parse_level("scalar"), simd::Level::kScalar);
  EXPECT_EQ(simd::parse_level("avx2"), simd::Level::kAvx2);
  EXPECT_EQ(simd::parse_level("avx512"), simd::Level::kAvx512);
  EXPECT_EQ(simd::parse_level("auto"), simd::detected_level());
  EXPECT_THROW(simd::parse_level("sse2"), InvalidArgument);
  EXPECT_THROW(simd::parse_level(""), InvalidArgument);
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx512), "avx512");
}

TEST_F(SimdTest, ScalarAlwaysSupportedAndOrdered) {
  EXPECT_TRUE(simd::level_supported(simd::Level::kScalar));
  // A CPU supporting level L supports every lower level.
  if (simd::level_supported(simd::Level::kAvx512)) {
    EXPECT_TRUE(simd::level_supported(simd::Level::kAvx2));
  }
}

TEST_F(SimdTest, OverrideWinsAndClears) {
  simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(&simd::active_kernels(),
            &simd::kernels_for(simd::Level::kScalar));
  simd::clear_level_override();
  // "auto" via the string overload also clears.
  simd::set_level("scalar");
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  simd::set_level("auto");
  EXPECT_EQ(simd::active_level(), simd::active_level());  // no throw
}

TEST_F(SimdTest, UnsupportedLevelThrows) {
  if (!simd::level_supported(simd::Level::kAvx512)) {
    EXPECT_THROW(simd::set_level(simd::Level::kAvx512), InvalidArgument);
    EXPECT_THROW(simd::set_level("avx512"), InvalidArgument);
  } else {
    GTEST_SKIP() << "host supports every compiled level";
  }
}

TEST_F(SimdTest, FmaFlagDefaultsOffAndOverrides) {
  simd::set_fma_allowed(false);
  EXPECT_FALSE(simd::fma_allowed());
  simd::set_fma_allowed(true);
  EXPECT_TRUE(simd::fma_allowed());
}

TEST_F(SimdTest, MeasureHostSpeedupIsOneAtScalarAndClamped) {
  simd::set_level(simd::Level::kScalar);
  EXPECT_DOUBLE_EQ(simd::measure_host_speedup(), 1.0);
  simd::clear_level_override();
  const double s = simd::measure_host_speedup();
  EXPECT_GE(s, 1.0);
  EXPECT_LE(s, 16.0);
}

// -- deterministic tier: bitwise equivalence sweep ---------------------------

const std::size_t kDims[] = {1, 2,  3,  4,  5,  6,  7,  8,  9,
                             10, 11, 12, 13, 14, 15, 16, 17, 31,
                             64, 100, 127};
const std::size_t kCenters[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 17};

TEST_F(SimdTest, DistanceAndQuadBlocksBitIdenticalAcrossLevels) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t m : kCenters) {
      for (const std::size_t d : kDims) {
        std::vector<double> x(d), ct(m * d), var_t(m * d);
        for (std::size_t i = 0; i < d; ++i) x[i] = synth(i);
        for (std::size_t i = 0; i < m * d; ++i) {
          ct[i] = synth(i + 13);
          var_t[i] = 0.25 + std::fabs(synth(i + 101));  // positive variances
        }
        std::vector<double> got(m), want(m);
        kn.dist2_block(x.data(), ct.data(), m, d, got.data());
        simd::ref::dist2_block(x.data(), ct.data(), m, d, want.data());
        for (std::size_t j = 0; j < m; ++j) {
          ASSERT_TRUE(bits_equal(got[j], want[j]))
              << "dist2 level=" << simd::level_name(level) << " m=" << m
              << " d=" << d << " j=" << j;
        }
        kn.quad_block(x.data(), ct.data(), var_t.data(), m, d, got.data());
        simd::ref::quad_block(x.data(), ct.data(), var_t.data(), m, d,
                              want.data());
        for (std::size_t j = 0; j < m; ++j) {
          ASSERT_TRUE(bits_equal(got[j], want[j]))
              << "quad level=" << simd::level_name(level) << " m=" << m
              << " d=" << d << " j=" << j;
        }
      }
    }
  }
}

TEST_F(SimdTest, ElementwiseKernelsBitIdenticalAcrossLevels) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t n : kDims) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = synth(i + 7);
      const double w = 1.75;

      std::vector<double> got(n), want(n);
      for (std::size_t i = 0; i < n; ++i) got[i] = want[i] = synth(i + 31);
      kn.axpy_acc(got.data(), x.data(), w, n);
      simd::ref::axpy_acc(want.data(), x.data(), w, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(bits_equal(got[i], want[i])) << "axpy_acc n=" << n;
      }

      kn.add_acc(got.data(), x.data(), n);
      simd::ref::add_acc(want.data(), x.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(bits_equal(got[i], want[i])) << "add_acc n=" << n;
      }

      std::vector<double> g2(n), w2(n);
      for (std::size_t i = 0; i < n; ++i) g2[i] = w2[i] = synth(i + 53);
      kn.moments_acc(got.data(), g2.data(), x.data(), 0.37, n);
      simd::ref::moments_acc(want.data(), w2.data(), x.data(), 0.37, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(bits_equal(got[i], want[i])) << "moments p1 n=" << n;
        ASSERT_TRUE(bits_equal(g2[i], w2[i])) << "moments p2 n=" << n;
      }

      kn.scale(got.data(), 0.9375, n);
      simd::ref::scale(want.data(), 0.9375, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(bits_equal(got[i], want[i])) << "scale n=" << n;
      }
    }
  }
}

TEST_F(SimdTest, RowDotsBitIdenticalAcrossLevels) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t rows : kCenters) {
      for (const std::size_t d : kDims) {
        std::vector<double> a(rows * d), x(d);
        for (std::size_t i = 0; i < a.size(); ++i) a[i] = synth(i + 3);
        for (std::size_t i = 0; i < d; ++i) x[i] = synth(i + 11);
        std::vector<double> got(rows), want(rows);
        kn.row_dots(a.data(), d, rows, d, x.data(), got.data());
        simd::ref::row_dots(a.data(), d, rows, d, x.data(), want.data());
        for (std::size_t r = 0; r < rows; ++r) {
          ASSERT_TRUE(bits_equal(got[r], want[r]))
              << "row_dots level=" << simd::level_name(level)
              << " rows=" << rows << " d=" << d << " r=" << r;
        }
      }
    }
  }
}

TEST_F(SimdTest, StencilRowBitIdenticalAcrossLevels) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t cols : {2ul, 3ul, 4ul, 9ul, 16ul, 17ul, 33ul,
                                   64ul, 101ul}) {
      std::vector<double> mid(cols), up(cols), down(cols);
      for (std::size_t i = 0; i < cols; ++i) {
        mid[i] = synth(i);
        up[i] = synth(i + 211);
        down[i] = synth(i + 409);
      }
      std::vector<double> got(cols, 0.0), want(cols, 0.0);
      const double gm =
          kn.stencil_row(got.data(), mid.data(), up.data(), down.data(), cols);
      const double wm = simd::ref::stencil_row(want.data(), mid.data(),
                                               up.data(), down.data(), cols);
      ASSERT_TRUE(bits_equal(gm, wm)) << "stencil max cols=" << cols;
      for (std::size_t c = 1; c + 1 < cols; ++c) {
        ASSERT_TRUE(bits_equal(got[c], want[c]))
            << "stencil level=" << simd::level_name(level)
            << " cols=" << cols << " c=" << c;
      }
    }
  }
}

TEST_F(SimdTest, PackTransposedRoundTrips) {
  const std::size_t m = 5, d = 7;
  std::vector<double> a(m * d);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = synth(i);
  std::vector<double> t;
  simd::pack_transposed(a.data(), m, d, t);
  ASSERT_EQ(t.size(), m * d);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t c = 0; c < d; ++c) {
      EXPECT_TRUE(bits_equal(t[c * m + j], a[j * d + c]));
    }
  }
}

// -- fma tier: ULP-bounded against the reference -----------------------------

TEST_F(SimdTest, FmaDotWithinRelativeBound) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t n : {1ul, 3ul, 8ul, 17ul, 100ul, 1000ul, 1023ul}) {
      std::vector<double> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = synth(i);
        b[i] = synth(i + 500);
      }
      const double want = simd::ref::dot(a.data(), b.data(), n);
      const double got = kn.dot_fast(a.data(), b.data(), n);
      // Reassociation error of a length-n sum is O(n * eps * sum |terms|).
      double mag = 0.0;
      for (std::size_t i = 0; i < n; ++i) mag += std::fabs(a[i] * b[i]);
      const double tol =
          static_cast<double>(n) * std::numeric_limits<double>::epsilon() *
              mag +
          1e-300;
      EXPECT_NEAR(got, want, tol)
          << "dot_fast level=" << simd::level_name(level) << " n=" << n;
    }
  }
}

TEST_F(SimdTest, FmaNrm2MatchesContractAndBound) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    for (const std::size_t n : {1ul, 7ul, 64ul, 1000ul}) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = synth(i + 3) * 1e150;
      const double want = simd::ref::nrm2(x.data(), n);
      const double got = kn.nrm2_fast(x.data(), n);
      EXPECT_NEAR(got, want,
                  1e-12 * want + std::numeric_limits<double>::min())
          << "nrm2_fast level=" << simd::level_name(level) << " n=" << n;
    }
    // Special values: NaN dominates, else Inf, signed zeros are skipped.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> with_inf{1.0, -inf, 2.0};
    std::vector<double> with_nan{1.0, nan, inf};
    std::vector<double> zeros{0.0, -0.0, 0.0};
    EXPECT_EQ(kn.nrm2_fast(with_inf.data(), with_inf.size()), inf);
    EXPECT_TRUE(std::isnan(kn.nrm2_fast(with_nan.data(), with_nan.size())));
    EXPECT_EQ(kn.nrm2_fast(zeros.data(), zeros.size()), 0.0);
  }
}

TEST_F(SimdTest, FmaAxpyWithinRelativeBound) {
  for (const simd::Level level : supported_levels()) {
    const simd::Kernels& kn = simd::kernels_for(level);
    const std::size_t n = 257;
    std::vector<double> got(n), want(n), x(n);
    for (std::size_t i = 0; i < n; ++i) {
      got[i] = want[i] = synth(i);
      x[i] = synth(i + 77);
    }
    kn.axpy_acc_fast(got.data(), x.data(), 1.5, n);
    simd::ref::axpy_acc(want.data(), x.data(), 1.5, n);
    for (std::size_t i = 0; i < n; ++i) {
      // One fused vs one rounded multiply-add: the difference is the
      // rounding of the product, so bound it by the term magnitudes (the
      // sum may cancel to far below |1.5 * x[i]|).
      EXPECT_NEAR(got[i], want[i],
                  2.0 * std::numeric_limits<double>::epsilon() *
                      (std::fabs(want[i]) + std::fabs(1.5 * x[i])));
    }
  }
}

// -- linalg::nrm2 special-value contract (the satellite bugfix) --------------

TEST_F(SimdTest, Nrm2InfinityYieldsInfNotNaN) {
  simd::set_fma_allowed(false);
  const double inf = std::numeric_limits<double>::infinity();
  // Two infinities used to hit inf/inf = NaN in the scaled update.
  std::vector<double> two_inf{inf, inf};
  EXPECT_EQ(linalg::nrm2<double>(two_inf), inf);
  std::vector<double> mixed{3.0, -inf, 2.0, inf};
  EXPECT_EQ(linalg::nrm2<double>(mixed), inf);
  std::vector<double> with_nan{inf, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_TRUE(std::isnan(linalg::nrm2<double>(with_nan)));
  std::vector<double> zeros{0.0, -0.0};
  EXPECT_EQ(linalg::nrm2<double>(zeros), 0.0);
  // Scaling still prevents overflow/underflow for extreme finite inputs.
  std::vector<double> huge{1e200, 1e200, 1e200};
  EXPECT_NEAR(linalg::nrm2<double>(huge), std::sqrt(3.0) * 1e200,
              1e186);
  std::vector<double> tiny{1e-200, 1e-200};
  EXPECT_NEAR(linalg::nrm2<double>(tiny), std::sqrt(2.0) * 1e-200, 1e-214);
  // Equal-to-scale elements take the exact +1 branch.
  std::vector<double> equal{5.0, -5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(linalg::nrm2<double>(equal), 10.0);
}

// -- gemm_blocked tail blocks (the satellite audit) --------------------------

TEST_F(SimdTest, GemmBlockedMatchesPlainGemmAtTailSizes) {
  exec::ThreadPool::instance().configure(3);
  simd::set_fma_allowed(false);
  for (const simd::Level level : supported_levels()) {
    simd::set_level(level);
    for (const std::size_t n : {1ul, 63ul, 64ul, 65ul, 97ul, 101ul}) {
      const std::size_t m = (n % 2 == 0) ? n + 1 : n;  // exercise odd rows
      const std::size_t k = (n >= 64) ? n - 1 : n + 2;
      linalg::MatrixD a(m, k), b(k, n), c1(m, n, 0.5), c2(m, n, 0.5);
      for (std::size_t i = 0; i < m * k; ++i) a.storage()[i] = synth(i);
      for (std::size_t i = 0; i < k * n; ++i) b.storage()[i] = synth(i + 9);
      linalg::gemm(1.25, a, b, 0.75, c1);
      linalg::gemm_blocked(1.25, a, b, 0.75, c2, 64);
      for (std::size_t i = 0; i < m * n; ++i) {
        ASSERT_TRUE(bits_equal(c1.storage()[i], c2.storage()[i]))
            << "gemm_blocked level=" << simd::level_name(level)
            << " n=" << n << " elem=" << i;
      }
      // Block sizes bracketing the dims hit every tail-shape combination.
      for (const std::size_t block : {1ul, 63ul, 65ul, 128ul}) {
        linalg::MatrixD c3(m, n, 0.5);
        linalg::gemm_blocked(1.25, a, b, 0.75, c3, block);
        for (std::size_t i = 0; i < m * n; ++i) {
          ASSERT_TRUE(bits_equal(c1.storage()[i], c3.storage()[i]))
              << "gemm_blocked block=" << block << " n=" << n;
        }
      }
    }
  }
}

TEST_F(SimdTest, GemmBlockedFmaWithinRelativeBound) {
  simd::set_fma_allowed(true);
  const std::size_t m = 33, k = 65, n = 31;
  linalg::MatrixD a(m, k), b(k, n), want(m, n, 0.0), got(m, n, 0.0);
  for (std::size_t i = 0; i < m * k; ++i) a.storage()[i] = synth(i);
  for (std::size_t i = 0; i < k * n; ++i) b.storage()[i] = synth(i + 9);
  {
    simd::set_fma_allowed(false);
    linalg::gemm(1.0, a, b, 0.0, want);
    simd::set_fma_allowed(true);
  }
  linalg::gemm_blocked(1.0, a, b, 0.0, got, 16);
  // The bound must scale with the magnitude of the accumulated terms, not
  // the (possibly cancelled) result: mag(i,j) = sum_k |a(i,k)*b(k,j)|.
  linalg::MatrixD aa(m, k), ab(k, n), mag(m, n, 0.0);
  for (std::size_t i = 0; i < m * k; ++i)
    aa.storage()[i] = std::fabs(a.storage()[i]);
  for (std::size_t i = 0; i < k * n; ++i)
    ab.storage()[i] = std::fabs(b.storage()[i]);
  {
    simd::set_fma_allowed(false);
    linalg::gemm(1.0, aa, ab, 0.0, mag);
    simd::set_fma_allowed(true);
  }
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(got.storage()[i], want.storage()[i],
                static_cast<double>(k) *
                        std::numeric_limits<double>::epsilon() *
                        mag.storage()[i] +
                    1e-300);
  }
}

// -- gemm_blocked output tiles ----------------------------------------------

/// The row-block loop order gemm_blocked used before it was tiled across
/// column panels, run serially: per 64-row block, scale whole rows, then
/// k0 -> j0 -> i -> k. Every C element must see the same kernel calls on
/// the same panels in the tiled version.
void row_block_gemm_reference(double alpha, const linalg::MatrixD& a,
                              const linalg::MatrixD& b, double beta,
                              linalg::MatrixD& c) {
  constexpr std::size_t kBlock = 64;
  const simd::Kernels& kn = simd::active_kernels();
  const auto axpy = simd::fma_allowed() ? kn.axpy_acc_fast : kn.axpy_acc;
  const std::size_t m = a.rows(), n = b.cols(), kk = a.cols();
  for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
    const std::size_t i1 = std::min(i0 + kBlock, m);
    for (std::size_t i = i0; i < i1; ++i) kn.scale(c.row(i), beta, n);
    for (std::size_t k0 = 0; k0 < kk; k0 += kBlock) {
      const std::size_t k1 = std::min(k0 + kBlock, kk);
      for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
        const std::size_t j1 = std::min(j0 + kBlock, n);
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t k = k0; k < k1; ++k) {
            axpy(c.row(i) + j0, b.row(k) + j0, alpha * a(i, k), j1 - j0);
          }
        }
      }
    }
  }
}

TEST_F(SimdTest, GemmBlockedTilesAreByteIdenticalAcrossThreadsAndLevels) {
  struct Shape {
    std::size_t m, n, k;  // C is m x n, the inner dimension is k
  };
  // 21 x 1000 x 100 is a dgemm map block (about 20 rows of a wide C).
  const Shape shapes[] = {{1, 1, 1}, {21, 1000, 100}, {65, 129, 63},
                          {64, 64, 64}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool fma : {false, true}) {
    simd::set_fma_allowed(fma);
    for (const Shape& sh : shapes) {
      linalg::MatrixD a(sh.m, sh.k), b(sh.k, sh.n);
      for (std::size_t i = 0; i < a.size(); ++i) a.storage()[i] = synth(i);
      for (std::size_t i = 0; i < b.size(); ++i) {
        b.storage()[i] = synth(i + 9);
      }
      for (const double beta : {0.0, 0.7}) {
        // With beta = 0 the preloaded NaN/inf must go through the scale
        // exactly as before (NaN * 0 and inf * 0 stay NaN), not be skipped.
        linalg::MatrixD c0(sh.m, sh.n, 0.25);
        for (std::size_t i = 0; i < c0.size(); ++i) {
          if (beta == 0.0 && i % 3 == 0) c0.storage()[i] = nan;
          if (beta == 0.0 && i % 3 == 1) c0.storage()[i] = -inf;
          if (beta != 0.0) c0.storage()[i] = synth(i + 5);
        }
        // Deterministic tier: one reference for every level; FMA tier:
        // one reference per level (the fused kernel is level-specific).
        linalg::MatrixD::Storage tier_ref;
        for (const simd::Level level : supported_levels()) {
          simd::set_level(level);
          linalg::MatrixD want = c0;
          row_block_gemm_reference(1.5, a, b, beta, want);
          if (!fma) {
            if (tier_ref.empty()) tier_ref = want.storage();
            ASSERT_EQ(std::memcmp(tier_ref.data(), want.storage().data(),
                                  tier_ref.size() * sizeof(double)),
                      0)
                << "reference differs across levels at "
                << simd::level_name(level);
          }
          for (const int threads : {1, 2, 3, 4}) {
            exec::ThreadPool::instance().configure(threads);
            linalg::MatrixD got = c0;
            linalg::gemm_blocked(1.5, a, b, beta, got);
            EXPECT_EQ(std::memcmp(want.storage().data(),
                                  got.storage().data(),
                                  want.size() * sizeof(double)),
                      0)
                << sh.m << "x" << sh.n << "x" << sh.k << " beta=" << beta
                << " fma=" << fma << " level=" << simd::level_name(level)
                << " threads=" << threads;
          }
        }
      }
    }
  }
  exec::ThreadPool::instance().configure(3);
}

// -- roofline feedback (Eq (8) with a measured host speedup) -----------------

TEST_F(SimdTest, WithCpuScaleRederivesTheSplit) {
  roofline::WorkloadSplit split;
  split.cpu_rate = 10.0;
  split.gpu_rate = 90.0;
  split.cpu_fraction = 0.1;
  split.regime = roofline::SplitRegime::kBetweenRidges;
  const auto scaled = split.with_cpu_scale(3.0);
  EXPECT_DOUBLE_EQ(scaled.cpu_rate, 30.0);
  EXPECT_DOUBLE_EQ(scaled.gpu_rate, 90.0);
  EXPECT_DOUBLE_EQ(scaled.cpu_fraction, 0.25);
  EXPECT_EQ(scaled.regime, split.regime);
  EXPECT_THROW(split.with_cpu_scale(0.0), Error);
  EXPECT_THROW(split.with_cpu_scale(-1.0), Error);
  // scale 1 is the identity.
  EXPECT_DOUBLE_EQ(split.with_cpu_scale(1.0).cpu_fraction,
                   split.cpu_fraction);
}

TEST_F(SimdTest, HostSimdScaleRaisesTheCpuShare) {
  sim::Simulator sim;
  core::Cluster cluster(sim, 1, core::NodeConfig{});
  core::StaticAnalyticPolicy policy;
  core::JobShape shape;
  shape.ai_cpu = shape.ai_gpu = 50.0;
  shape.gpu_data_cached = true;
  shape.ai_of_block = [](double) { return 50.0; };

  core::JobConfig base;
  const auto d0 = policy.node_decision(cluster, shape, base, 0);
  core::JobConfig boosted;
  boosted.host_simd_scale = 4.0;
  const auto d1 = policy.node_decision(cluster, shape, boosted, 0);
  EXPECT_GT(d1.cpu_fraction, d0.cpu_fraction);
  EXPECT_GT(d1.capability, d0.capability);
  // The exact Eq (8) value: p' = s*Fc / (s*Fc + Fg).
  const auto split = cluster.scheduler(0).workload_split(
      shape.ai_cpu, shape.ai_gpu, !shape.gpu_data_cached, 1);
  EXPECT_DOUBLE_EQ(d1.cpu_fraction,
                   split.with_cpu_scale(4.0).cpu_fraction);
}

// -- app-level digest pins ---------------------------------------------------

/// The engine_determinism_test shapes, byte-for-byte: these digests were
/// captured from the pre-SIMD runner, so they simultaneously pin
/// (a) PRS_SIMD=scalar == the old scalar arithmetic and (b) vector levels
/// == scalar (the cross-ISA determinism contract), for all eight apps.
struct AppGolden {
  const char* app;
  const char* digest;
};
constexpr AppGolden kGoldens[] = {
    {"cmeans", "de9498a2752edda5"},    {"kmeans", "d577cc8d98d6d9f2"},
    {"gmm", "703897dae037855e"},      {"gemv", "2e2da806987a60a8"},
    {"dgemm", "a6c2dd578bfdf0f3"},    {"fft", "afc039769dc48a31"},
    {"wordcount", "ff2126bc8e56f40a"}, {"stencil", "fd1284ed68020988"},
};

svc::JobSpec app_spec(const std::string& app) {
  svc::JobSpec spec;
  spec.app = app;
  spec.nodes = 3;
  spec.functional = true;
  spec.points = 400;
  spec.dims = 6;
  spec.clusters = 3;
  spec.iterations = 4;
  spec.rows = 96;
  spec.cols = 64;
  if (app == "dgemm") {
    spec.rows = 48;
    spec.cols = 40;
    spec.dims = 24;
  } else if (app == "stencil") {
    spec.dims = 40;  // grid rows
    spec.cols = 32;
    spec.iterations = 6;
  } else if (app == "fft") {
    spec.functional = false;  // modeled-only app
    spec.points = 64;
  } else if (app == "wordcount") {
    spec.points = 300;  // corpus lines
  }
  return spec;
}

std::string run_digest(const std::string& app) {
  exec::ThreadPool::instance().configure(3);
  svc::JobSpec spec = app_spec(app);
  spec.validate();
  sim::Simulator simu;
  const core::NodeConfig node = spec.node_config();
  core::Cluster cluster(simu, spec.nodes, node);
  core::JobConfig cfg = spec.job_config();
  auto policy = core::make_policy(spec.policy);
  cfg.policy = policy.get();
  Rng rng(spec.seed);
  const svc::LaunchOutcome out =
      svc::run_job_spec(spec, cluster, node, cfg, rng, nullptr);
  EXPECT_FALSE(out.digest.empty()) << app << " produced no digest";
  return out.digest;
}

TEST_F(SimdTest, AllAppsPinnedDigestsAtEveryLevel) {
  simd::set_fma_allowed(false);  // the contract covers the deterministic tier
  for (const simd::Level level : supported_levels()) {
    simd::set_level(level);
    for (const AppGolden& g : kGoldens) {
      EXPECT_EQ(run_digest(g.app), g.digest)
          << g.app << " diverged at level " << simd::level_name(level);
    }
  }
}

}  // namespace
}  // namespace prs
