#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace prs {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// Jump-ahead. The xoshiro256 state transition T is linear over GF(2), so
// T^n = q(T) with q(x) = x^n mod p(x), p the characteristic polynomial of
// T. A GF(2) polynomial of degree < 256 is four words: bit e of word e/64
// is the coefficient of x^e.
using Poly = std::array<std::uint64_t, 4>;

// p(x) without its leading x^256 term. Derived by Berlekamp-Massey from 512
// successive values of one state bit (the minimal polynomial has degree
// 256, so it is p); x^(2^128) mod p reproduces the reference xoshiro256
// jump() constants. Rng.AdvanceMatchesRepeatedNext checks advance()
// against next().
constexpr Poly kCharPoly = {0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull,
                            0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull};

/// a(x) * x mod p(x).
Poly times_x(Poly a) {
  const bool carry = (a[3] >> 63) != 0;
  a[3] = (a[3] << 1) | (a[2] >> 63);
  a[2] = (a[2] << 1) | (a[1] >> 63);
  a[1] = (a[1] << 1) | (a[0] >> 63);
  a[0] <<= 1;
  if (carry) {
    for (int w = 0; w < 4; ++w) a[w] ^= kCharPoly[w];
  }
  return a;
}

/// x^(256 + j) mod p(x) for j in [0, 256): folds the high half of a square
/// back below degree 256.
const std::array<Poly, 256>& high_powers() {
  static const std::array<Poly, 256> table = [] {
    std::array<Poly, 256> t{};
    Poly a = kCharPoly;  // x^256 = p(x) - x^256 (mod p)
    for (auto& entry : t) {
      entry = a;
      a = times_x(a);
    }
    return t;
  }();
  return table;
}

/// Bit i of v moved to bit 2i: squaring over GF(2) interleaves zeros.
constexpr std::uint64_t spread_bits(std::uint32_t v) {
  std::uint64_t x = v;
  x = (x | (x << 16)) & 0x0000ffff0000ffffull;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffull;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

/// a(x)^2 mod p(x).
Poly square(const Poly& a) {
  std::uint64_t wide[8];
  for (int w = 0; w < 4; ++w) {
    wide[2 * w] = spread_bits(static_cast<std::uint32_t>(a[w]));
    wide[2 * w + 1] = spread_bits(static_cast<std::uint32_t>(a[w] >> 32));
  }
  Poly r = {wide[0], wide[1], wide[2], wide[3]};
  const auto& high = high_powers();
  for (int w = 0; w < 4; ++w) {
    for (std::uint64_t bits = wide[4 + w]; bits != 0; bits &= bits - 1) {
      const Poly& h = high[64 * w + std::countr_zero(bits)];
      for (int k = 0; k < 4; ++k) r[k] ^= h[k];
    }
  }
  return r;
}

/// x^n mod p(x), by square-and-multiply from the top bit of n.
Poly x_pow_mod(std::uint64_t n) {
  Poly r = {1, 0, 0, 0};
  for (int bit = 63 - std::countl_zero(n); bit >= 0; --bit) {
    r = square(r);
    if ((n >> bit) & 1) r = times_x(r);
  }
  return r;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // Xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::from_state(const State& state) {
  PRS_REQUIRE((state[0] | state[1] | state[2] | state[3]) != 0,
              "xoshiro state must not be all zero");
  Rng r;
  for (int w = 0; w < 4; ++w) r.s_[w] = state[w];
  return r;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

void Rng::advance(std::uint64_t n) {
  // Short jumps are cheaper stepped than through the 256-step apply below.
  if (n < 256) {
    for (; n > 0; --n) next();
    return;
  }
  // T^n s = sum of q_i T^i s over the set coefficients of q = x^n mod p,
  // accumulated while stepping s through T^0..T^255 (as xoshiro's jump()).
  const Poly q = x_pow_mod(n);
  std::uint64_t acc[4] = {0, 0, 0, 0};
  for (int w = 0; w < 4; ++w) {
    for (int b = 0; b < 64; ++b) {
      if ((q[w] >> b) & 1) {
        for (int k = 0; k < 4; ++k) acc[k] ^= s_[k];
      }
      next();
    }
  }
  for (int k = 0; k < 4; ++k) s_[k] = acc[k];
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  PRS_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  PRS_REQUIRE(n > 0, "uniform_index requires n > 0");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  // Avoid log(0).
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  PRS_REQUIRE(stddev >= 0.0, "normal stddev must be non-negative");
  return mean + stddev * normal();
}

Rng Rng::split(std::uint64_t salt) const {
  SplitMix64 sm(s_[0] ^ rotl(s_[3], 13) ^ (salt * 0x9e3779b97f4a7c15ull));
  return Rng(sm.next());
}

bool operator==(const Rng& a, const Rng& b) {
  for (int k = 0; k < 4; ++k) {
    if (a.s_[k] != b.s_[k]) return false;
  }
  // A consumed cache leaves its stale value behind; only a pending one
  // changes the next normal().
  if (a.has_cached_normal_ != b.has_cached_normal_) return false;
  return !a.has_cached_normal_ || a.cached_normal_ == b.cached_normal_;
}

}  // namespace prs
