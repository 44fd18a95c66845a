#include "serve/zipf.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "common/assert.hpp"

namespace tahoe::serve {

Zipf::Zipf(std::size_t n, double s) : s_(s) {
  TAHOE_REQUIRE(n > 0, "Zipf needs at least one rank");
  TAHOE_REQUIRE(s >= 0.0, "Zipf exponent must be non-negative");
  table_ = shared_table(n, s);
}

std::shared_ptr<const Zipf::Table> Zipf::shared_table(std::size_t n,
                                                      double s) {
  // Keyed on the exponent's bits: only an exact repeat shares a table.
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, std::uint64_t>,
                  std::shared_ptr<const Table>>
      tables;
  const std::lock_guard<std::mutex> lock(mutex);
  std::shared_ptr<const Table>& table =
      tables[{n, std::bit_cast<std::uint64_t>(s)}];
  if (table == nullptr) {
    table = std::make_shared<const Table>(build_table(n, s));
  }
  return table;
}

Zipf::Table Zipf::build_table(std::size_t n, double s) {
  Table t;
  t.cdf.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    t.cdf[k] = total;
  }
  for (double& c : t.cdf) c /= total;
  t.cdf.back() = 1.0;  // guard against rounding drift at the tail
  // One merge-like pass: both j / kGuideEntries and the CDF ascend.
  t.guide.resize(kGuideEntries);
  std::size_t k = 0;
  for (std::size_t j = 0; j < kGuideEntries; ++j) {
    const double u = static_cast<double>(j) / kGuideEntries;
    while (t.cdf[k] <= u) ++k;
    t.guide[j] = k;
  }
  return t;
}

std::size_t Zipf::rank_of(double u) const {
  TAHOE_REQUIRE(u >= 0.0 && u < 1.0, "Zipf::rank_of needs u in [0, 1)");
  // u * kGuideEntries only shifts the exponent, so the entry index is
  // exact and the entry's u never exceeds this one; cdf.back() == 1.0
  // stops the scan.
  const std::vector<double>& cdf = table_->cdf;
  std::size_t k = table_->guide[static_cast<std::size_t>(u * kGuideEntries)];
  while (cdf[k] <= u) ++k;
  return k;
}

double Zipf::cdf(std::size_t k) const {
  TAHOE_REQUIRE(k < table_->cdf.size(), "Zipf::cdf rank out of range");
  return table_->cdf[k];
}

double Zipf::pmf(std::size_t k) const {
  const std::vector<double>& cdf = table_->cdf;
  TAHOE_REQUIRE(k < cdf.size(), "Zipf::pmf rank out of range");
  return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
}

}  // namespace tahoe::serve
