#include "serve/zipf.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace tahoe::serve {

Zipf::Zipf(std::size_t n, double s) : s_(s) {
  TAHOE_REQUIRE(n > 0, "Zipf needs at least one rank");
  TAHOE_REQUIRE(s >= 0.0, "Zipf exponent must be non-negative");
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding drift at the tail
  // One merge-like pass: both j / kGuideEntries and the CDF ascend.
  guide_.resize(kGuideEntries);
  std::size_t k = 0;
  for (std::size_t j = 0; j < kGuideEntries; ++j) {
    const double u = static_cast<double>(j) / kGuideEntries;
    while (cdf_[k] <= u) ++k;
    guide_[j] = k;
  }
}

std::size_t Zipf::rank_of(double u) const {
  TAHOE_REQUIRE(u >= 0.0 && u < 1.0, "Zipf::rank_of needs u in [0, 1)");
  // u * kGuideEntries only shifts the exponent, so the entry index is
  // exact and the entry's u never exceeds this one; cdf_.back() == 1.0
  // stops the scan.
  std::size_t k = guide_[static_cast<std::size_t>(u * kGuideEntries)];
  while (cdf_[k] <= u) ++k;
  return k;
}

double Zipf::cdf(std::size_t k) const {
  TAHOE_REQUIRE(k < cdf_.size(), "Zipf::cdf rank out of range");
  return cdf_[k];
}

double Zipf::pmf(std::size_t k) const {
  TAHOE_REQUIRE(k < cdf_.size(), "Zipf::pmf rank out of range");
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace tahoe::serve
