// Zipfian rank distribution for serving-workload key popularity.
//
// P[X = k] is proportional to 1/(k+1)^s over ranks k in [0, n). The CDF is
// precomputed once (O(n)), drawing from the repo's deterministic Rng so
// same-seed runs produce identical key streams. Sampling inverts the CDF
// through a guide table (Chen and Asau): entry j holds the rank for
// u = j/4096, so a draw u starts at entry floor(u * 4096), which is exact
// because 4096 is a power of two, and scans forward to the first CDF value
// above u. Each draw gets the rank a binary search over the CDF would give
// it, in expected O(1). The analytic CDF is exposed so tests can compare
// the empirical distribution against it directly.
//
// The CDF and guide table are immutable once built, so a process builds
// each (n, s) table once and every Zipf of that exact n and exponent
// shares it: a serving tenant made for every run of a rate ladder costs
// no table but the first.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace tahoe::serve {

class Zipf {
 public:
  /// `n` ranks with exponent `s` (s = 0 degenerates to uniform).
  Zipf(std::size_t n, double s);

  /// Draw one rank in [0, n): rank_of of the Rng's next double.
  std::size_t sample(Rng& rng) const { return rank_of(rng.next_double()); }

  /// The smallest rank k with cdf(k) > u, for u in [0, 1).
  std::size_t rank_of(double u) const;

  /// Analytic CDF: P[X <= k]. Requires k < size().
  double cdf(std::size_t k) const;

  /// Analytic PMF: P[X = k]. Requires k < size().
  double pmf(std::size_t k) const;

  std::size_t size() const noexcept { return table_->cdf.size(); }
  double exponent() const noexcept { return s_; }

 private:
  static constexpr std::size_t kGuideEntries = 4096;

  struct Table {
    std::vector<double> cdf;  ///< cdf[k] = P[X <= k]; back() == 1.0
    /// guide[j] = rank_of(j / kGuideEntries).
    std::vector<std::size_t> guide;
  };

  /// The process's table for exactly (n, s), built on first use.
  static std::shared_ptr<const Table> shared_table(std::size_t n, double s);
  static Table build_table(std::size_t n, double s);

  std::shared_ptr<const Table> table_;
  double s_ = 0.0;
};

}  // namespace tahoe::serve
