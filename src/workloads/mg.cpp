#include "workloads/mg.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace tahoe::workloads {

MgApp::Config MgApp::config_for(Scale scale) {
  Config c;
  if (scale == Scale::Test) {
    c.log2_n = 10;
    c.levels = 4;
    c.bands = 4;
    c.iterations = 10;
  } else {
    c.log2_n = 24;  // 16M points finest -> 128 MiB per finest array
    c.levels = 6;
    c.bands = 16;
    c.iterations = 12;
  }
  return c;
}

void MgApp::setup(hms::ObjectRegistry& registry,
                  const hms::ChunkingPolicy& chunking) {
  (void)chunking;  // aliasing-heavy arrays: never partitioned (paper's MG)
  registry_ = &registry;
  real_ = registry.arena(registry.capacity_tier()).backing() == hms::Backing::Real;
  TAHOE_REQUIRE(config_.levels >= 2, "mg needs at least two levels");
  TAHOE_REQUIRE(level_n(config_.levels - 1) >= 4, "too many levels");

  u_.clear();
  r_.clear();
  for (std::size_t l = 0; l < config_.levels; ++l) {
    const std::uint64_t bytes = level_n(l) * sizeof(double);
    u_.push_back(registry.create("u" + std::to_string(l), bytes,
                                 registry.capacity_tier()));
    r_.push_back(registry.create("r" + std::to_string(l), bytes,
                                 registry.capacity_tier()));
  }
  v_ = registry.create("v", level_n(0) * sizeof(double), registry.capacity_tier());

  const double iters = static_cast<double>(config_.iterations);
  for (std::size_t l = 0; l < config_.levels; ++l) {
    const auto dn = static_cast<double>(level_n(l));
    registry.get_mutable(u_[l]).static_ref_estimate = 12 * dn * iters;
    registry.get_mutable(r_[l]).static_ref_estimate = 8 * dn * iters;
  }
  registry.get_mutable(v_).static_ref_estimate =
      2 * static_cast<double>(level_n(0)) * iters;

  if (!real_) return;
  double* v = reinterpret_cast<double*>(registry.chunk_ptr(v_));
  const std::size_t n = level_n(0);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2.0 * 3.14159265358979 * static_cast<double>(i) /
                    static_cast<double>(n));
  }
}

double* MgApp::lvl(hms::ObjectId id) const {
  return reinterpret_cast<double*>(registry_->chunk_ptr(id));
}

void MgApp::smooth_band(std::size_t level, std::size_t lo,
                        std::size_t hi) const {
  // Weighted-Jacobi smoothing of -u'' = r at this level.
  double* u = lvl(u_[level]);
  const double* r = lvl(r_[level]);
  const std::size_t n = level_n(level);
  for (std::size_t i = std::max<std::size_t>(lo, 1);
       i < std::min(hi, n - 1); ++i) {
    u[i] = 0.5 * u[i] + 0.25 * (u[i - 1] + u[i + 1] + r[i]);
  }
}

void MgApp::build_iteration(task::GraphBuilder& builder,
                            std::size_t iteration) {
  (void)iteration;
  if (builder.keep_previous()) return;
  const std::size_t levels = config_.levels;

  auto bands_at = [this](std::size_t level) {
    // Coarser levels get fewer tasks.
    std::size_t b = config_.bands >> level;
    return std::max<std::size_t>(b, 1);
  };

  auto smooth_group = [&](std::size_t level, const char* tag) {
    builder.begin_group(std::string(tag) + std::to_string(level));
    const std::size_t n = level_n(level);
    const std::size_t nb = bands_at(level);
    const std::uint64_t band = n / nb;
    for (std::size_t b = 0; b < nb; ++b) {
      task::Task t;
      t.label = tag;
      t.compute_seconds = compute_time(5.0 * static_cast<double>(band));
      t.accesses = {
          access(u_[level], task::AccessMode::ReadWrite,
                 traffic(3 * band, band, band * 8, 0.55, 0.10)),
          access(r_[level], task::AccessMode::Read,
                 traffic(band, 0, band * 8, 0.1, 0.0)),
      };
      if (real_) {
        const std::size_t lo = band * b;
        const std::size_t hi = (b + 1 == nb) ? n : band * (b + 1);
        t.work = [this, level, lo, hi]() { smooth_band(level, lo, hi); };
      }
      builder.add_task(std::move(t));
    }
  };

  // ---- finest residual: r0 = v - A u0 ----
  {
    builder.begin_group("residual0");
    const std::size_t n = level_n(0);
    const std::size_t nb = bands_at(0);
    const std::uint64_t band = n / nb;
    for (std::size_t b = 0; b < nb; ++b) {
      task::Task t;
      t.label = "residual";
      t.compute_seconds = compute_time(5.0 * static_cast<double>(band));
      t.accesses = {
          access(v_, task::AccessMode::Read,
                 traffic(band, 0, band * 8, 0.1, 0.0)),
          access(u_[0], task::AccessMode::Read,
                 traffic(3 * band, 0, band * 8, 0.5, 0.0)),
          access(r_[0], task::AccessMode::Write,
                 traffic(0, band, band * 8, 0.1, 0.0)),
      };
      if (real_) {
        const std::size_t lo = band * b;
        const std::size_t hi = (b + 1 == nb) ? n : band * (b + 1);
        t.work = [this, lo, hi, n]() {
          const double* v = lvl(v_);
          const double* u = lvl(u_[0]);
          double* r = lvl(r_[0]);
          for (std::size_t i = std::max<std::size_t>(lo, 1);
               i < std::min(hi, n - 1); ++i) {
            r[i] = v[i] - (2.0 * u[i] - u[i - 1] - u[i + 1]);
          }
        };
      }
      builder.add_task(std::move(t));
    }
  }

  // ---- down sweep: smooth, restrict ----
  for (std::size_t l = 0; l + 1 < levels; ++l) {
    smooth_group(l, "smooth_dn");
    builder.begin_group("restrict" + std::to_string(l));
    const std::size_t nc = level_n(l + 1);
    const std::size_t nb = bands_at(l + 1);
    const std::uint64_t band = nc / nb;
    for (std::size_t b = 0; b < nb; ++b) {
      task::Task t;
      t.label = "restrict";
      t.compute_seconds = compute_time(4.0 * static_cast<double>(band));
      t.accesses = {
          access(r_[l], task::AccessMode::Read,
                 traffic(2 * band, 0, 2 * band * 8, 0.3, 0.0)),
          access(r_[l + 1], task::AccessMode::Write,
                 traffic(0, band, band * 8, 0.1, 0.0)),
          access(u_[l + 1], task::AccessMode::Write,
                 traffic(0, band, band * 8, 0.1, 0.0)),
      };
      if (real_) {
        const std::size_t lo = band * b;
        const std::size_t hi = (b + 1 == nb) ? nc : band * (b + 1);
        t.work = [this, l, lo, hi, nc]() {
          const double* rf = lvl(r_[l]);
          double* rc = lvl(r_[l + 1]);
          double* uc = lvl(u_[l + 1]);
          for (std::size_t i = std::max<std::size_t>(lo, 1);
               i < std::min(hi, nc - 1); ++i) {
            rc[i] = 0.25 * (rf[2 * i - 1] + 2.0 * rf[2 * i] + rf[2 * i + 1]);
            uc[i] = 0.0;
          }
        };
      }
      builder.add_task(std::move(t));
    }
  }

  // ---- coarsest solve: a few smoothing passes ----
  smooth_group(levels - 1, "coarse");

  // ---- up sweep: prolongate, smooth ----
  for (std::size_t l = levels - 1; l-- > 0;) {
    builder.begin_group("prolong" + std::to_string(l));
    const std::size_t nc = level_n(l + 1);
    const std::size_t nb = bands_at(l + 1);
    const std::uint64_t band = nc / nb;
    for (std::size_t b = 0; b < nb; ++b) {
      task::Task t;
      t.label = "prolong";
      t.compute_seconds = compute_time(4.0 * static_cast<double>(band));
      t.accesses = {
          access(u_[l + 1], task::AccessMode::Read,
                 traffic(band, 0, band * 8, 0.3, 0.0)),
          access(u_[l], task::AccessMode::ReadWrite,
                 traffic(2 * band, 2 * band, 2 * band * 8, 0.3, 0.0)),
      };
      if (real_) {
        const std::size_t lo = band * b;
        const std::size_t hi = (b + 1 == nb) ? nc : band * (b + 1);
        t.work = [this, l, lo, hi, nc]() {
          const double* uc = lvl(u_[l + 1]);
          double* uf = lvl(u_[l]);
          for (std::size_t i = std::max<std::size_t>(lo, 1);
               i < std::min(hi, nc - 1); ++i) {
            uf[2 * i] += uc[i];
            uf[2 * i + 1] += 0.5 * (uc[i] + (i + 1 < nc ? uc[i + 1] : 0.0));
          }
        };
      }
      builder.add_task(std::move(t));
    }
    smooth_group(l, "smooth_up");
  }
}

bool MgApp::verify(hms::ObjectRegistry& registry) {
  if (!real_) return true;
  (void)registry;
  // The V-cycles must keep the solution finite and reduce the finest
  // residual well below the RHS norm.
  const std::size_t n = level_n(0);
  const double* u = lvl(u_[0]);
  const double* v = lvl(v_);
  double res = 0.0;
  double rhs = 0.0;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    if (!std::isfinite(u[i])) return false;
    const double r = v[i] - (2.0 * u[i] - u[i - 1] - u[i + 1]);
    res += r * r;
    rhs += v[i] * v[i];
  }
  return res < rhs;  // multigrid strictly reduces the residual
}

}  // namespace tahoe::workloads
