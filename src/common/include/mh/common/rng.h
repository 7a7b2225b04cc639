#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "mh/common/error.h"

/// \file rng.h
/// Deterministic random number generation for dataset synthesis and
/// failure injection. All randomness in the library flows through a seeded
/// Rng so every experiment is reproducible bit-for-bit.

namespace mh {

/// xoshiro256** seeded via SplitMix64. Small, fast, and deterministic across
/// platforms (unlike std::default_random_engine / std distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) {
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit word.
  uint64_t next() {
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t uniform(uint64_t bound) {
    if (bound == 0) throw InvalidArgumentError("uniform(0)");
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = (~bound + 1) % bound;
    while (true) {
      const uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t range(int64_t lo, int64_t hi) {
    if (hi < lo) throw InvalidArgumentError("range(hi < lo)");
    return lo + static_cast<int64_t>(
                    uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return uniform01() < p; }

  /// Normal(mean, stddev) via Box–Muller.
  double normal(double mean, double stddev) {
    if (have_spare_) {
      have_spare_ = false;
      return mean + stddev * spare_;
    }
    double u, v, s;
    do {
      u = 2.0 * uniform01() - 1.0;
      v = 2.0 * uniform01() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    have_spare_ = true;
    return mean + stddev * u * mul;
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    if (mean <= 0) throw InvalidArgumentError("exponential mean <= 0");
    double u;
    do {
      u = uniform01();
    } while (u == 0.0);
    return -mean * std::log(u);
  }

  /// Forks an independent, deterministic child stream.
  Rng fork() { return Rng(next() ^ 0xD1B54A32D192ED03ull); }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  double spare_ = 0.0;
  bool have_spare_ = false;
};

/// Zipfian sampler over ranks 1..n with exponent s — used for word
/// frequencies in the synthetic text corpus and key skew in rating data.
/// Precomputes the CDF and a guide table over it: 2^k >= 2n equal-width
/// buckets of [0, 1], entry j holding the first rank whose CDF is >= j/2^k.
/// A draw u starts at its bucket's entry and scans forward, so each sample
/// costs O(1) on average and returns exactly the rank a binary search over
/// the CDF would (the first entry >= u), draw for draw.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s) : cdf_(n) {
    if (n == 0) throw InvalidArgumentError("Zipf over empty domain");
    if (n > UINT32_MAX) throw InvalidArgumentError("Zipf domain over 2^32");
    double sum = 0.0;
    for (uint64_t k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_[k - 1] = sum;
    }
    for (auto& c : cdf_) c /= sum;

    size_t buckets = 2;
    while (buckets < 2 * n) buckets *= 2;
    buckets_ = static_cast<double>(buckets);
    // One entry past the last bucket, so u == 1.0 needs no clamp.
    guide_.resize(buckets + 1);
    size_t rank = 0;
    for (size_t j = 0; j <= buckets; ++j) {
      // j / 2^k is exact: both are integers below 2^53.
      const double edge = static_cast<double>(j) / buckets_;
      while (rank + 1 < n && cdf_[rank] < edge) ++rank;
      guide_[j] = rank;
    }
  }

  /// Samples a rank in [0, n).
  uint64_t sample(Rng& rng) const { return rankOf(rng.uniform01()); }

  /// The first rank whose CDF entry is >= u (the last rank if none is), for
  /// u in [0, 1]. u * 2^k is exact, so the bucket's guide entry never lies
  /// past that rank.
  uint64_t rankOf(double u) const {
    size_t rank = guide_[static_cast<size_t>(u * buckets_)];
    while (rank + 1 < cdf_.size() && cdf_[rank] < u) ++rank;
    return rank;
  }

  size_t domain() const { return cdf_.size(); }

  /// The CDF over ranks 0..n-1; the last entry is 1.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> guide_;
  double buckets_ = 0;  ///< 2^k, as the scale a draw's bucket is read at
};

}  // namespace mh
