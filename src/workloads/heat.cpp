#include "workloads/heat.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace tahoe::workloads {

HeatApp::Config HeatApp::config_for(Scale scale) {
  Config c;
  if (scale == Scale::Test) {
    c.nx = 96;
    c.ny = 96;
    c.bands = 4;
    c.iterations = 12;
  } else {
    c.nx = 8192;
    c.ny = 8192;
    c.bands = 32;
    c.iterations = 15;
  }
  return c;
}

void HeatApp::setup(hms::ObjectRegistry& registry,
                    const hms::ChunkingPolicy& chunking) {
  (void)chunking;
  registry_ = &registry;
  real_ = registry.arena(registry.capacity_tier()).backing() == hms::Backing::Real;
  const std::uint64_t cells =
      static_cast<std::uint64_t>(config_.nx) * config_.ny;
  const std::uint64_t bytes = cells * sizeof(double);

  u0_ = registry.create("u0", bytes, registry.capacity_tier());
  u1_ = registry.create("u1", bytes, registry.capacity_tier());
  coeff_ = registry.create("coeff", bytes, registry.capacity_tier());
  partial_ = registry.create("partial", config_.bands * kCacheLine,
                             registry.capacity_tier(), config_.bands);
  scalars_ = registry.create("hscalars", 8 * sizeof(double), registry.capacity_tier());

  const double iters = static_cast<double>(config_.iterations);
  const auto dc = static_cast<double>(cells);
  registry.get_mutable(u0_).static_ref_estimate = 6 * dc * iters;
  registry.get_mutable(u1_).static_ref_estimate = 3 * dc * iters;
  registry.get_mutable(coeff_).static_ref_estimate = dc * iters;

  if (!real_) return;
  double* u0 = grid(u0_);
  double* u1 = grid(u1_);
  double* cf = grid(coeff_);
  const std::size_t nx = config_.nx;
  const std::size_t ny = config_.ny;
  // The coefficient depends on i + j only: one sin per anti-diagonal.
  std::vector<double> diagonal(nx + ny);
  for (std::size_t d = 0; d < diagonal.size(); ++d) {
    diagonal[d] = 0.8 + 0.2 * std::sin(0.01 * static_cast<double>(d));
  }
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      // Hot left edge, cold right edge, zero interior.
      const double v = (j == 0) ? 1.0 : (j == ny - 1 ? -1.0 : 0.0);
      u0[i * ny + j] = v;
      u1[i * ny + j] = v;
      cf[i * ny + j] = diagonal[i + j];
    }
  }
}

double* HeatApp::grid(hms::ObjectId id) const {
  return reinterpret_cast<double*>(registry_->chunk_ptr(id));
}

void HeatApp::build_iteration(task::GraphBuilder& builder,
                              std::size_t iteration) {
  (void)iteration;
  if (builder.keep_previous()) return;
  const std::size_t nx = config_.nx;
  const std::size_t ny = config_.ny;
  const std::size_t nb = config_.bands;
  const std::uint64_t band_cells = static_cast<std::uint64_t>(nx) / nb * ny;

  auto band_rows = [this](std::size_t b) {
    const std::size_t lo = std::max<std::size_t>(1, config_.nx / config_.bands * b);
    const std::size_t hi = (b + 1 == config_.bands)
                               ? config_.nx - 1
                               : config_.nx / config_.bands * (b + 1);
    return std::pair<std::size_t, std::size_t>{lo, hi};
  };

  // ---- stencil: u1 = jacobi(u0, coeff) ----
  builder.begin_group("stencil");
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = "stencil";
    t.compute_seconds = compute_time(6.0 * static_cast<double>(band_cells));
    t.accesses = {
        access(u0_, task::AccessMode::Read,
               traffic(5 * band_cells, 0, band_cells * 8, 0.6, 0.0)),
        access(coeff_, task::AccessMode::Read,
               traffic(band_cells, 0, band_cells * 8, 0.1, 0.0)),
        access(u1_, task::AccessMode::Write,
               traffic(0, band_cells, band_cells * 8, 0.1, 0.0)),
    };
    if (real_) {
      t.work = [this, b, ny, band_rows]() {
        const auto [lo, hi] = band_rows(b);
        const double* u0 = grid(u0_);
        const double* cf = grid(coeff_);
        double* u1 = grid(u1_);
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = 1; j + 1 < ny; ++j) {
            const std::size_t c = i * ny + j;
            u1[c] = u0[c] + 0.2 * cf[c] *
                                (u0[c - 1] + u0[c + 1] + u0[c - ny] +
                                 u0[c + ny] - 4.0 * u0[c]);
          }
        }
      };
    }
    builder.add_task(std::move(t));
  }

  // ---- residual reduction ----
  builder.begin_group("residual");
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = "residual";
    t.compute_seconds = compute_time(3.0 * static_cast<double>(band_cells));
    t.accesses = {
        access(u0_, task::AccessMode::Read,
               traffic(band_cells, 0, band_cells * 8, 0.2, 0.0)),
        access(u1_, task::AccessMode::Read,
               traffic(band_cells, 0, band_cells * 8, 0.2, 0.0)),
        access(partial_, task::AccessMode::Write, traffic(0, 1, 64, 0.9, 0.0),
               b),
    };
    if (real_) {
      t.work = [this, b, ny, band_rows]() {
        const auto [lo, hi] = band_rows(b);
        const double* u0 = grid(u0_);
        const double* u1 = grid(u1_);
        double sum = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = 0; j < ny; ++j) {
            const double d = u1[i * ny + j] - u0[i * ny + j];
            sum += d * d;
          }
        }
        *reinterpret_cast<double*>(registry_->chunk_ptr(partial_, b)) = sum;
      };
    }
    builder.add_task(std::move(t));
  }
  {
    task::Task t;
    t.label = "reduce_residual";
    t.compute_seconds = compute_time(static_cast<double>(nb));
    t.accesses = {
        access(partial_, task::AccessMode::Read,
               traffic(nb, 0, nb * 64, 0.9, 0.0), task::kAllChunks),
        access(scalars_, task::AccessMode::Write, traffic(0, 1, 64, 0.9, 0.0)),
    };
    if (real_) {
      t.work = [this]() {
        double sum = 0.0;
        for (std::size_t b = 0; b < config_.bands; ++b) {
          sum += *reinterpret_cast<const double*>(
              registry_->chunk_ptr(partial_, b));
        }
        *reinterpret_cast<double*>(registry_->chunk_ptr(scalars_)) = sum;
      };
    }
    builder.add_task(std::move(t));
  }

  // ---- advance: u0 = u1 ----
  builder.begin_group("advance");
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = "advance";
    t.compute_seconds = compute_time(static_cast<double>(band_cells));
    t.accesses = {
        access(u1_, task::AccessMode::Read,
               traffic(band_cells, 0, band_cells * 8, 0.1, 0.0)),
        access(u0_, task::AccessMode::Write,
               traffic(0, band_cells, band_cells * 8, 0.1, 0.0)),
    };
    if (real_) {
      t.work = [this, b, ny, band_rows]() {
        const auto [lo, hi] = band_rows(b);
        const double* u1 = grid(u1_);
        double* u0 = grid(u0_);
        std::memcpy(u0 + lo * ny, u1 + lo * ny, (hi - lo) * ny * sizeof(double));
      };
    }
    builder.add_task(std::move(t));
  }
}

double HeatApp::last_residual(hms::ObjectRegistry& registry) const {
  return *reinterpret_cast<const double*>(registry.chunk_ptr(scalars_));
}

bool HeatApp::verify(hms::ObjectRegistry& registry) {
  if (!real_) return true;
  // Jacobi on a fixed-boundary Laplace problem: the sweep-to-sweep change
  // must be finite and small after several iterations.
  const double res = last_residual(registry);
  if (!std::isfinite(res)) return false;
  const double cells =
      static_cast<double>(config_.nx) * static_cast<double>(config_.ny);
  return res < cells;  // diffusion contracts; residual far below footprint
}

}  // namespace tahoe::workloads
