/// \file random.h
/// \brief Deterministic pseudo-random generation (xoshiro256**).
///
/// All workload generation and randomized testing in dfdb uses this PRNG so
/// that every experiment is reproducible from a single seed.

#ifndef DFDB_COMMON_RANDOM_H_
#define DFDB_COMMON_RANDOM_H_

#include <cassert>
#include <cmath>
#include <cstdint>

namespace dfdb {

/// \brief xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm).
class Random {
 public:
  /// Seeds the state with splitmix64 expansion of \p seed.
  explicit Random(uint64_t seed = 42) {
    uint64_t x = seed;
    for (int i = 0; i < 4; ++i) {
      // splitmix64 step.
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s_[i] = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform value in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n) {
    assert(n > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -n % n;
    for (;;) {
      const uint64_t r = Next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform value in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInRange(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// True with probability \p p (clamped to [0,1]).
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

/// \brief Zipfian rank sampler (Gray et al., "Quickly Generating
/// Billion-Record Synthetic Databases", SIGMOD 1994).
///
/// Next() draws ranks in [0, n) where rank r has probability proportional
/// to 1/(r+1)^theta — rank 0 is the hottest item, rank n-1 the coldest.
/// Construction is O(n) (harmonic sum); sampling is O(1). Deterministic
/// given the Random stream it draws from.
class Zipfian {
 public:
  explicit Zipfian(uint64_t n, double theta = 0.99)
      : n_(n), theta_(theta), zetan_(Zeta(n, theta)) {
    assert(n > 0);
    assert(theta > 0 && theta < 1);
    alpha_ = 1.0 / (1.0 - theta_);
    const double zeta2 = Zeta(2 < n ? 2 : n, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Random* rng) {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const uint64_t rank = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
  }

  uint64_t n() const { return n_; }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

}  // namespace dfdb

#endif  // DFDB_COMMON_RANDOM_H_
