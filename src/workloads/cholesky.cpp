#include "workloads/cholesky.hpp"

#include <cmath>
#include <cstring>

#include "common/assert.hpp"

namespace {
// Vectorized dense kernels run near machine peak (see lu.cpp).
constexpr double kDenseFlops = 64e9;
}  // namespace

namespace tahoe::workloads {

CholeskyApp::Config CholeskyApp::config_for(Scale scale) {
  Config c;
  if (scale == Scale::Test) {
    c.n = 96;
    c.block = 24;
    c.iterations = 4;
  } else {
    c.n = 16384;
    c.block = 512;
    c.iterations = 10;
  }
  return c;
}

void CholeskyApp::setup(hms::ObjectRegistry& registry,
                        const hms::ChunkingPolicy& chunking) {
  (void)chunking;  // block columns are the algorithmic partition
  TAHOE_REQUIRE(config_.n % config_.block == 0, "block must divide n");
  registry_ = &registry;
  real_ = registry.arena(registry.capacity_tier()).backing() == hms::Backing::Real;
  const std::size_t k = nblocks();
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(config_.n) * config_.n * sizeof(double);

  a0_ = registry.create("chol_a0", bytes, registry.capacity_tier(), k);
  a_ = registry.create("chol_a", bytes, registry.capacity_tier(), k);

  const auto dn = static_cast<double>(config_.n);
  const double iters = static_cast<double>(config_.iterations);
  registry.get_mutable(a_).static_ref_estimate = dn * dn * dn / 6.0 * iters;
  registry.get_mutable(a0_).static_ref_estimate = dn * dn * iters;

  if (!real_) return;
  // Symmetric positive definite: small symmetric perturbation + n on the
  // diagonal.
  const std::size_t n = config_.n;
  const std::size_t bs = config_.block;
  for (std::size_t j = 0; j < k; ++j) {
    auto* slab = reinterpret_cast<double*>(registry.chunk_ptr(a0_, j));
    for (std::size_t jj = 0; jj < bs; ++jj) {
      const std::size_t gcol = j * bs + jj;
      for (std::size_t i = 0; i < n; ++i) {
        const auto lo = static_cast<double>(std::min(i, gcol));
        const auto hi = static_cast<double>(std::max(i, gcol));
        double v = 0.3 * std::sin(0.37 * lo + 0.73 * hi);
        if (i == gcol) v += static_cast<double>(n);
        slab[jj * n + i] = v;
      }
    }
  }
}

double* CholeskyApp::col(std::size_t j) const {
  return reinterpret_cast<double*>(registry_->chunk_ptr(a_, j));
}

const double* CholeskyApp::col0(std::size_t j) const {
  return reinterpret_cast<const double*>(registry_->chunk_ptr(a0_, j));
}

void CholeskyApp::build_iteration(task::GraphBuilder& builder,
                                  std::size_t iteration) {
  (void)iteration;
  if (builder.keep_previous()) return;
  const std::size_t n = config_.n;
  const std::size_t bs = config_.block;
  const std::size_t k = nblocks();
  const std::uint64_t col_elems = static_cast<std::uint64_t>(n) * bs;
  const std::uint64_t col_bytes = col_elems * sizeof(double);

  // ---- reset: A = A0 ----
  builder.begin_group("chol_reset");
  for (std::size_t j = 0; j < k; ++j) {
    task::Task t;
    t.label = "reset";
    t.compute_seconds = compute_time(static_cast<double>(col_elems));
    t.accesses = {
        access(a0_, task::AccessMode::Read,
               traffic(col_elems, 0, col_bytes, 0.0, 0.0), j),
        access(a_, task::AccessMode::Write,
               traffic(0, col_elems, col_bytes, 0.0, 0.0), j),
    };
    if (real_) {
      t.work = [this, j, col_bytes]() {
        std::memcpy(col(j), col0(j), col_bytes);
      };
    }
    builder.add_task(std::move(t));
  }

  for (std::size_t step = 0; step < k; ++step) {
    const std::uint64_t panel_rows = n - step * bs;
    const std::uint64_t panel_elems = panel_rows * bs;

    // ---- panel: POTRF of the diagonal block + TRSM of the rows below ----
    builder.begin_group("chol_panel");
    {
      task::Task t;
      t.label = "potrf+trsm";
      t.compute_seconds = static_cast<double>(panel_elems) *
                          static_cast<double>(bs) / 3.0 / kDenseFlops;
      t.accesses = {access(
          a_, task::AccessMode::ReadWrite,
          traffic(panel_elems * bs / 4, panel_elems, panel_elems * 8, 0.70,
                  0.45),
          step)};
      if (real_) {
        t.work = [this, step, n, bs]() {
          double* slab = col(step);
          const std::size_t r0 = step * bs;
          for (std::size_t jj = 0; jj < bs; ++jj) {
            const std::size_t prow = r0 + jj;
            const double diag = slab[jj * n + prow];
            TAHOE_ASSERT(diag > 0.0, "matrix not positive definite");
            const double d = std::sqrt(diag);
            for (std::size_t i = prow; i < n; ++i) slab[jj * n + i] /= d;
            for (std::size_t cc = jj + 1; cc < bs; ++cc) {
              const double mult = slab[jj * n + (r0 + cc)];
              for (std::size_t i = r0 + cc; i < n; ++i) {
                slab[cc * n + i] -= slab[jj * n + i] * mult;
              }
            }
          }
        };
      }
      builder.add_task(std::move(t));
    }

    // ---- trailing update: SYRK/GEMM per remaining block column ----
    if (step + 1 < k) {
      builder.begin_group("chol_update");
      for (std::size_t j = step + 1; j < k; ++j) {
        task::Task t;
        t.label = "syrk";
        t.compute_seconds = 2.0 * static_cast<double>(panel_elems) *
                            static_cast<double>(bs) / kDenseFlops;
        t.accesses = {
            access(a_, task::AccessMode::Read,
                   traffic(panel_elems, 0, panel_elems * 8, 0.50, 0.05),
                   step),
            access(a_, task::AccessMode::ReadWrite,
                   traffic(panel_elems, panel_elems / 2, panel_elems * 8,
                           0.50, 0.05),
                   j),
        };
        if (real_) {
          t.work = [this, step, j, n, bs]() {
            const double* panel = col(step);
            double* slab = col(j);
            for (std::size_t cc = 0; cc < bs; ++cc) {
              const std::size_t grow = j * bs + cc;  // target global column
              for (std::size_t jj = 0; jj < bs; ++jj) {
                const double mult = panel[jj * n + grow];
                for (std::size_t i = grow; i < n; ++i) {
                  slab[cc * n + i] -= panel[jj * n + i] * mult;
                }
              }
            }
          };
        }
        builder.add_task(std::move(t));
      }
    }
  }
}

bool CholeskyApp::verify(hms::ObjectRegistry& registry) {
  if (!real_) return true;
  (void)registry;
  const std::size_t n = config_.n;
  const std::size_t bs = config_.block;
  auto l_at = [&](std::size_t i, std::size_t j) {
    // Lower factor is stored in the lower triangle of A.
    return i >= j ? col(j / bs)[(j % bs) * n + i] : 0.0;
  };
  auto a0_at = [&](std::size_t i, std::size_t j) {
    return col0(j / bs)[(j % bs) * n + i];
  };
  double err = 0.0;
  double ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double llt = 0.0;
      for (std::size_t p = 0; p <= j; ++p) llt += l_at(i, p) * l_at(j, p);
      const double d = llt - a0_at(i, j);
      err += d * d;
      ref += a0_at(i, j) * a0_at(i, j);
    }
  }
  return std::sqrt(err / ref) < 1e-10;
}

}  // namespace tahoe::workloads
