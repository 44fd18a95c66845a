#include "workloads/lu.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace {
// Dense panel/update kernels are vectorized and run near machine peak,
// unlike the scalar rate the generic workloads model.
constexpr double kDenseFlops = 64e9;
}  // namespace

namespace tahoe::workloads {

LuApp::Config LuApp::config_for(Scale scale) {
  Config c;
  if (scale == Scale::Test) {
    c.n = 96;
    c.block = 24;
    c.iterations = 4;
  } else {
    c.n = 16384;
    c.block = 512;  // 32 block columns of 64 MiB each
    c.iterations = 12;
  }
  return c;
}

void LuApp::setup(hms::ObjectRegistry& registry,
                  const hms::ChunkingPolicy& chunking) {
  (void)chunking;  // block columns are the algorithmic partition
  TAHOE_REQUIRE(config_.n % config_.block == 0, "block must divide n");
  registry_ = &registry;
  real_ = registry.arena(registry.capacity_tier()).backing() == hms::Backing::Real;
  const std::size_t k = nblocks();
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(config_.n) * config_.n * sizeof(double);

  a0_ = registry.create("a0", bytes, registry.capacity_tier(), k);
  a_ = registry.create("a", bytes, registry.capacity_tier(), k);

  const auto dn = static_cast<double>(config_.n);
  const double iters = static_cast<double>(config_.iterations);
  registry.get_mutable(a_).static_ref_estimate = dn * dn * dn / 2.0 * iters;
  registry.get_mutable(a0_).static_ref_estimate = dn * dn * iters;

  if (!real_) return;
  // Diagonally dominant matrix: safe for pivotless LU.
  Rng rng(0x1c0ffeeULL);
  const std::size_t n = config_.n;
  const std::size_t bs = config_.block;
  for (std::size_t j = 0; j < k; ++j) {
    auto* slab = reinterpret_cast<double*>(registry.chunk_ptr(a0_, j));
    for (std::size_t jj = 0; jj < bs; ++jj) {
      const std::size_t gcol = j * bs + jj;
      for (std::size_t i = 0; i < n; ++i) {
        double v = rng.next_double() - 0.5;
        if (i == gcol) v += static_cast<double>(n);
        slab[jj * n + i] = v;
      }
    }
  }
}

double* LuApp::col(std::size_t j) const {
  return reinterpret_cast<double*>(registry_->chunk_ptr(a_, j));
}

const double* LuApp::col0(std::size_t j) const {
  return reinterpret_cast<const double*>(registry_->chunk_ptr(a0_, j));
}

void LuApp::build_iteration(task::GraphBuilder& builder,
                            std::size_t iteration) {
  (void)iteration;
  if (builder.keep_previous()) return;
  const std::size_t n = config_.n;
  const std::size_t bs = config_.block;
  const std::size_t k = nblocks();
  const std::uint64_t col_elems = static_cast<std::uint64_t>(n) * bs;
  const std::uint64_t col_bytes = col_elems * sizeof(double);

  // ---- reset: A = A0 ----
  builder.begin_group("reset");
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

    // ---- factor the panel (block column `step`, rows step*bs..n) ----
    builder.begin_group("factor");
    {
      task::Task t;
      t.label = "factor";
      t.compute_seconds = static_cast<double>(panel_elems) *
                          static_cast<double>(bs) / kDenseFlops;
      t.accesses = {access(
          a_, task::AccessMode::ReadWrite,
          traffic(panel_elems * bs / 2, panel_elems, panel_elems * 8, 0.70,
                  0.40),
          step)};
      if (real_) {
        t.work = [this, step, n, bs]() {
          double* slab = col(step);
          const std::size_t r0 = step * bs;
          for (std::size_t jj = 0; jj < bs; ++jj) {
            const std::size_t prow = r0 + jj;  // pivot row (global)
            const double pivot = slab[jj * n + prow];
            TAHOE_ASSERT(pivot != 0.0, "zero pivot in pivotless LU");
            for (std::size_t i = prow + 1; i < n; ++i) {
              slab[jj * n + i] /= pivot;
            }
            for (std::size_t cc = jj + 1; cc < bs; ++cc) {
              const double mult = slab[cc * n + prow];
              for (std::size_t i = prow + 1; i < n; ++i) {
                slab[cc * n + i] -= slab[jj * n + i] * mult;
              }
            }
          }
        };
      }
      builder.add_task(std::move(t));
    }

    // ---- update trailing block columns ----
    if (step + 1 < k) {
      builder.begin_group("update");
      for (std::size_t j = step + 1; j < k; ++j) {
        task::Task t;
        t.label = "update";
        t.compute_seconds = 2.0 * static_cast<double>(panel_elems) *
                            static_cast<double>(bs) / kDenseFlops;
        t.accesses = {
            access(a_, task::AccessMode::Read,
                   traffic(panel_elems, 0, panel_elems * 8, 0.50, 0.05),
                   step),
            access(a_, task::AccessMode::ReadWrite,
                   traffic(panel_elems * 2, panel_elems, panel_elems * 8,
                           0.50, 0.05),
                   j),
        };
        if (real_) {
          t.work = [this, step, j, n, bs]() {
            const double* panel = col(step);
            double* slab = col(j);
            const std::size_t r0 = step * bs;
            // U12 = L11^{-1} A12 (unit lower triangular solve), then
            // A22 -= L21 * U12, column by column of the target slab.
            for (std::size_t cc = 0; cc < bs; ++cc) {
              double* target = slab + cc * n;
              for (std::size_t jj = 0; jj < bs; ++jj) {
                const double u = target[r0 + jj];
                for (std::size_t i = r0 + jj + 1; i < n; ++i) {
                  target[i] -= panel[jj * n + i] * u;
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

bool LuApp::verify(hms::ObjectRegistry& registry) {
  if (!real_) return true;
  (void)registry;
  const std::size_t n = config_.n;
  const std::size_t bs = config_.block;
  const std::size_t k = nblocks();

  // Reconstruct L*U and compare against A0 (Frobenius relative error).
  auto a_at = [&](std::size_t i, std::size_t j) {
    return col(j / bs)[(j % bs) * n + i];
  };
  auto a0_at = [&](std::size_t i, std::size_t j) {
    return col0(j / bs)[(j % bs) * n + i];
  };
  (void)k;
  double err = 0.0;
  double ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double lu = 0.0;
      const std::size_t kmax = std::min(i, j);
      for (std::size_t p = 0; p <= kmax; ++p) {
        const double l = (p == i) ? 1.0 : a_at(i, p);
        lu += l * a_at(p, j);
      }
      const double d = lu - a0_at(i, j);
      err += d * d;
      ref += a0_at(i, j) * a0_at(i, j);
    }
  }
  return std::sqrt(err / ref) < 1e-10;
}

}  // namespace tahoe::workloads
