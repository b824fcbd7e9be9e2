// Deterministic random number generation.
//
// All stochastic pieces of the library (data generators, dynamic-scheduler
// jitter, initial cluster centers) draw from these engines so that every
// test, example, and bench is bit-reproducible from a seed.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace prs {

/// SplitMix64 — tiny seeding/stream-splitting generator (Steele et al.).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** — fast, high-quality PRNG (Blackman & Vigna). Satisfies the
/// UniformRandomBitGenerator concept so it plugs into <random> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;
  using State = std::array<std::uint64_t, 4>;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// An engine at exactly `state` with no cached normal. Requires a
  /// nonzero state.
  static Rng from_state(const State& state);

  /// The engine's four state words (the cached normal is not included).
  State state() const { return {s_[0], s_[1], s_[2], s_[3]}; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Jumps the engine ahead in O(log n): equal to n calls of next(). The
  /// cached normal, which next() never touches, is kept.
  void advance(std::uint64_t n);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second variate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Derives an independent child stream; children with distinct salts are
  /// statistically independent of the parent and of each other.
  Rng split(std::uint64_t salt) const;

  /// Same engine state and same pending cached normal: the two produce
  /// identical draws from here on.
  friend bool operator==(const Rng& a, const Rng& b);

  /// Fisher–Yates shuffle of an index vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace prs
