// Zipfian key-popularity generator: analytic CDF sanity, cross-run
// determinism (same seed => identical key stream), and the guide-table
// rank lookup against the binary search over the CDF it replaces.
#include "serve/zipf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace tahoe::serve {
namespace {

TEST(Zipf, CdfIsMonotoneAndNormalized) {
  for (const double s : {0.0, 0.5, 0.99, 1.1, 1.5}) {
    Zipf z(64, s);
    ASSERT_EQ(z.size(), 64u);
    EXPECT_DOUBLE_EQ(z.exponent(), s);
    double prev = 0.0;
    double pmf_sum = 0.0;
    for (std::size_t k = 0; k < z.size(); ++k) {
      const double c = z.cdf(k);
      EXPECT_GE(c, prev) << "cdf not monotone at k=" << k << " s=" << s;
      EXPECT_NEAR(z.pmf(k), c - prev, 1e-12);
      pmf_sum += z.pmf(k);
      prev = c;
    }
    EXPECT_DOUBLE_EQ(z.cdf(z.size() - 1), 1.0);
    EXPECT_NEAR(pmf_sum, 1.0, 1e-9);
  }
}

TEST(Zipf, ZeroExponentDegeneratesToUniform) {
  Zipf z(10, 0.0);
  for (std::size_t k = 0; k < z.size(); ++k) {
    EXPECT_NEAR(z.pmf(k), 0.1, 1e-12);
  }
}

TEST(Zipf, HeavierExponentConcentratesMassOnLowRanks) {
  Zipf light(1000, 0.8);
  Zipf heavy(1000, 1.4);
  EXPECT_GT(heavy.cdf(9), light.cdf(9));
  EXPECT_GT(heavy.pmf(0), light.pmf(0));
}

TEST(Zipf, EmpiricalDistributionMatchesAnalyticCdf) {
  constexpr std::size_t kRanks = 100;
  constexpr std::size_t kSamples = 200000;
  Zipf z(kRanks, 1.1);
  Rng rng(42);
  std::vector<std::size_t> hits(kRanks, 0);
  for (std::size_t i = 0; i < kSamples; ++i) {
    const std::size_t k = z.sample(rng);
    ASSERT_LT(k, kRanks);
    ++hits[k];
  }
  // Empirical CDF tracks the analytic one everywhere. With n = 2e5 the
  // standard error of any CDF point is < 0.002, so 0.01 is ~5 sigma.
  std::size_t cum = 0;
  for (std::size_t k = 0; k < kRanks; ++k) {
    cum += hits[k];
    const double empirical =
        static_cast<double>(cum) / static_cast<double>(kSamples);
    EXPECT_NEAR(empirical, z.cdf(k), 0.01) << "at rank " << k;
  }
}

TEST(Zipf, SameSeedSameStreamDifferentSeedDiverges) {
  Zipf z(4096, 1.1);
  Rng a(7), b(7), c(8);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const std::size_t ka = z.sample(a);
    EXPECT_EQ(ka, z.sample(b)) << "same-seed streams diverged at draw " << i;
    if (ka != z.sample(c)) diverged = true;
  }
  EXPECT_TRUE(diverged) << "different seeds produced identical streams";
}

/// The definition rank_of replaces: the first rank whose CDF value
/// exceeds u, by binary search.
std::size_t upper_bound_rank(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1
                         : static_cast<std::size_t>(it - cdf.begin());
}

TEST(Zipf, GuideTableRankEqualsUpperBoundOverTheCdf) {
  for (const std::size_t n : {1u, 2u, 3u, 4096u, 10007u}) {
    for (const double s : {0.0, 0.5, 1.1, 3.0}) {
      const Zipf z(n, s);
      std::vector<double> cdf(n);
      for (std::size_t k = 0; k < n; ++k) cdf[k] = z.cdf(k);
      // Every CDF value and its neighbours, where a lookup switches rank,
      // and both ends of [0, 1).
      std::vector<double> points{0.0, std::nextafter(1.0, 0.0)};
      for (const double c : cdf) {
        for (const double u : {std::nextafter(c, 0.0), c,
                               std::nextafter(c, 2.0)}) {
          if (u >= 0.0 && u < 1.0) points.push_back(u);
        }
      }
      for (const double u : points) {
        ASSERT_EQ(z.rank_of(u), upper_bound_rank(cdf, u))
            << "n=" << n << " s=" << s << " u=" << u;
      }
      // Seeded draws, through sample() as the services call it.
      Rng draws(1000 + n);
      Rng replay = draws;
      for (int i = 0; i < 100000; ++i) {
        ASSERT_EQ(z.sample(draws), upper_bound_rank(cdf, replay.next_double()))
            << "n=" << n << " s=" << s << " draw " << i;
      }
    }
  }
}

TEST(Zipf, RankOfRejectsDrawsOutsideTheUnitInterval) {
  const Zipf z(16, 1.1);
  for (const double u : {-1e-300, -1.0, 1.0, 1.5,
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)z.rank_of(u), ContractError) << "u=" << u;
  }
}

}  // namespace
}  // namespace tahoe::serve
