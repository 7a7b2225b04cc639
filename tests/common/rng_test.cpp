#include "mh/common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

namespace mh {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(13), 13u);
}

TEST(RngTest, UniformZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(0), InvalidArgumentError);
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, Uniform01HalfOpen) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NormalMatchesMoments) {
  Rng rng(19);
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, ExponentialMatchesMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.fork();
  // Child must not replay parent's sequence.
  Rng parent2(5);
  parent2.next();  // fork consumed one parent draw
  EXPECT_NE(child.next(), parent2.next());
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(ZipfTest, RankOneIsMostFrequent) {
  Rng rng(31);
  ZipfSampler zipf(1000, 1.0);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[zipf.sample(rng)];
  // Zipf(1.0): rank 0 should dominate and counts should decay with rank.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[0], 100000 / 10);  // harmonic share of rank 1 is ~13%
}

TEST(ZipfTest, SamplesStayInDomain) {
  Rng rng(37);
  ZipfSampler zipf(5, 1.2);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.sample(rng), 5u);
}

/// The first CDF entry >= u by binary search: the sampler's rank before
/// it had a guide table, and the reference it must match draw for draw.
uint64_t binarySearchRank(const std::vector<double>& cdf, double u) {
  size_t lo = 0, hi = cdf.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// The guide table returns the binary search's rank for random draws, at
/// every CDF entry (and its neighbours) and at every bucket edge, where an
/// off-by-one in the bucket or the scan would show. Exponent 0 over 4
/// ranks makes every CDF entry a bucket edge (k/4), so a guide built on
/// the wrong side of an edge shows too.
TEST(ZipfTest, GuideTableMatchesBinarySearch) {
  for (const auto& [n, s] : {std::pair<uint64_t, double>{1, 1.0}, {4, 0.0},
                             {5, 1.0}, {1000, 1.0}, {20000, 1.0}}) {
    SCOPED_TRACE(testing::Message() << "n=" << n << " s=" << s);
    const ZipfSampler zipf(n, s);
    const std::vector<double>& cdf = zipf.cdf();
    ASSERT_EQ(cdf.size(), n);
    Rng draws(n);
    Rng replay(n);
    int mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      const uint64_t rank = zipf.sample(draws);
      mismatches += rank != binarySearchRank(cdf, replay.uniform01());
    }
    EXPECT_EQ(mismatches, 0);

    std::vector<double> probes = {0.0, 1.0};
    for (const double c : cdf) {
      probes.push_back(c);
      probes.push_back(std::nextafter(c, 0.0));
      probes.push_back(std::nextafter(c, 1.0));
    }
    uint64_t buckets = 2;
    while (buckets < 2 * n) buckets *= 2;
    for (uint64_t j = 0; j <= buckets; ++j) {
      const double edge = static_cast<double>(j) / static_cast<double>(buckets);
      probes.push_back(edge);
      if (j > 0) probes.push_back(std::nextafter(edge, 0.0));
    }
    for (const double u : probes) {
      if (u < 0.0 || u > 1.0) continue;
      ASSERT_EQ(zipf.rankOf(u), binarySearchRank(cdf, u)) << "u=" << u;
    }
  }
}

TEST(ZipfTest, EmptyDomainThrows) {
  EXPECT_THROW(ZipfSampler(0, 1.0), InvalidArgumentError);
}

}  // namespace
}  // namespace mh
