#include "workloads/cg.hpp"

#include <cmath>
#include <cstring>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace tahoe::workloads {
namespace {

// Scalar slots.
constexpr std::size_t kSlotD = 0;       // p . q
constexpr std::size_t kSlotRho = 1;     // r . r (current)
constexpr std::size_t kSlotRhoNew = 2;  // r . r (next)
constexpr std::size_t kScalars = 8;

}  // namespace

CgApp::Config CgApp::config_for(Scale scale) {
  Config c;
  if (scale == Scale::Test) {
    c.rows = 2048;
    c.nnz_per_row = 8;
    c.blocks = 4;
    c.iterations = 8;
  } else {
    c.rows = 3u << 20;  // ~3.1M rows
    c.nnz_per_row = 16;
    c.blocks = 32;
    c.iterations = 15;
  }
  return c;
}

void CgApp::setup(hms::ObjectRegistry& registry,
                  const hms::ChunkingPolicy& chunking) {
  (void)chunking;  // CG objects are irregular (CSR); never partitioned
  registry_ = &registry;
  real_ = registry.arena(registry.capacity_tier()).backing() == hms::Backing::Real;
  const std::size_t n = config_.rows;
  const std::size_t nnz = n * config_.nnz_per_row;

  a_ = registry.create("a", nnz * sizeof(double), registry.capacity_tier());
  colidx_ = registry.create("colidx", nnz * sizeof(std::uint32_t), registry.capacity_tier());
  rowstr_ = registry.create("rowstr", (n + 1) * sizeof(std::uint64_t),
                            registry.capacity_tier());
  x_ = registry.create("x", n * sizeof(double), registry.capacity_tier());
  z_ = registry.create("z", n * sizeof(double), registry.capacity_tier());
  p_ = registry.create("p", n * sizeof(double), registry.capacity_tier());
  q_ = registry.create("q", n * sizeof(double), registry.capacity_tier());
  r_ = registry.create("r", n * sizeof(double), registry.capacity_tier());
  scratch_ = registry.create("scratch", config_.blocks * kCacheLine,
                             registry.capacity_tier(), config_.blocks);
  scalars_ = registry.create("scalars", kScalars * sizeof(double),
                             registry.capacity_tier());

  // Static reference estimates (compiler-analysis stand-in): references per
  // full run, proportional to the loop bounds.
  const double iters = static_cast<double>(config_.iterations);
  const auto dn = static_cast<double>(n);
  const auto dnnz = static_cast<double>(nnz);
  registry.get_mutable(a_).static_ref_estimate = dnnz * iters;
  registry.get_mutable(colidx_).static_ref_estimate = dnnz * iters;
  registry.get_mutable(rowstr_).static_ref_estimate = dn * iters;
  registry.get_mutable(p_).static_ref_estimate = (dnnz + 3 * dn) * iters;
  registry.get_mutable(q_).static_ref_estimate = 3 * dn * iters;
  registry.get_mutable(r_).static_ref_estimate = 4 * dn * iters;
  registry.get_mutable(z_).static_ref_estimate = dn * iters;
  registry.get_mutable(x_).static_ref_estimate = 0.0;  // touched rarely

  if (!real_) {
    initial_rho_ = static_cast<double>(n);
    return;
  }

  // Diagonally dominant SPD-ish matrix: diag = 2, off-diagonals -1/k.
  auto* av = reinterpret_cast<double*>(registry.chunk_ptr(a_));
  auto* ci = reinterpret_cast<std::uint32_t*>(registry.chunk_ptr(colidx_));
  auto* rs = reinterpret_cast<std::uint64_t*>(registry.chunk_ptr(rowstr_));
  Rng rng(0xc6c6c6ULL);
  const std::size_t off = config_.nnz_per_row - 1;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    rs[i] = pos;
    av[pos] = 2.0;
    ci[pos] = static_cast<std::uint32_t>(i);
    ++pos;
    for (std::size_t k = 0; k < off; ++k) {
      av[pos] = -1.0 / (static_cast<double>(off) + 1.0);
      ci[pos] = static_cast<std::uint32_t>(rng.next_below(n));
      ++pos;
    }
  }
  rs[n] = pos;

  // CG initial state: x = 0, r = b = 1, p = r, rho = r.r = n.
  double* xv = vec(x_);
  double* rv = vec(r_);
  double* pv = vec(p_);
  double* zv = vec(z_);
  for (std::size_t i = 0; i < n; ++i) {
    xv[i] = 0.0;
    zv[i] = 0.0;
    rv[i] = 1.0;
    pv[i] = 1.0;
  }
  auto* sc = reinterpret_cast<double*>(registry.chunk_ptr(scalars_));
  sc[kSlotRho] = static_cast<double>(n);
  initial_rho_ = sc[kSlotRho];
}

double* CgApp::vec(hms::ObjectId id) const {
  return reinterpret_cast<double*>(registry_->chunk_ptr(id));
}

double* CgApp::scratch_slot(std::size_t block) const {
  return reinterpret_cast<double*>(registry_->chunk_ptr(scratch_, block));
}

void CgApp::build_iteration(task::GraphBuilder& builder,
                            std::size_t iteration) {
  (void)iteration;  // CG is perfectly stationary across iterations
  if (builder.keep_previous()) return;
  const std::size_t n = config_.rows;
  const std::size_t nb = config_.blocks;
  const std::uint64_t nnz_blk = n / nb * config_.nnz_per_row;
  const std::uint64_t rows_blk = n / nb;
  const bool real = real_;
  hms::ObjectRegistry* reg = registry_;

  auto row_range = [n, nb](std::size_t b) {
    const std::size_t lo = n / nb * b;
    const std::size_t hi = (b + 1 == nb) ? n : n / nb * (b + 1);
    return std::pair<std::size_t, std::size_t>{lo, hi};
  };

  // ---- group 0: q = A * p ----
  builder.begin_group("spmv");
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = "spmv";
    t.compute_seconds = compute_time(2.0 * static_cast<double>(nnz_blk));
    t.accesses = {
        access(a_, task::AccessMode::Read,
               traffic(nnz_blk, 0, nnz_blk * 8, 0.05, 0.0)),
        access(colidx_, task::AccessMode::Read,
               traffic(nnz_blk, 0, nnz_blk * 4, 0.05, 0.0)),
        access(rowstr_, task::AccessMode::Read,
               traffic(rows_blk, 0, rows_blk * 8, 0.2, 0.0)),
        // The gather: indices span the whole vector; partially dependent,
        // no spatial adjacency (random columns).
        access(p_, task::AccessMode::Read,
               traffic(nnz_blk, 0, n * 8, 0.5, 0.10, 0.05)),
        access(q_, task::AccessMode::Write,
               traffic(0, rows_blk, rows_blk * 8, 0.0, 0.0)),
    };
    if (real) {
      auto [lo, hi] = row_range(b);
      t.work = [this, reg, lo, hi]() {
        const auto* av = reinterpret_cast<const double*>(reg->chunk_ptr(a_));
        const auto* ci =
            reinterpret_cast<const std::uint32_t*>(reg->chunk_ptr(colidx_));
        const auto* rs =
            reinterpret_cast<const std::uint64_t*>(reg->chunk_ptr(rowstr_));
        const double* pv = vec(p_);
        double* qv = vec(q_);
        for (std::size_t i = lo; i < hi; ++i) {
          double sum = 0.0;
          for (std::uint64_t k = rs[i]; k < rs[i + 1]; ++k) {
            sum += av[k] * pv[ci[k]];
          }
          qv[i] = sum;
        }
      };
    }
    builder.add_task(std::move(t));
  }

  // ---- group 1: d = p . q ----
  builder.begin_group("dot_pq");
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = "dot_pq";
    t.compute_seconds = compute_time(2.0 * static_cast<double>(rows_blk));
    t.accesses = {
        access(p_, task::AccessMode::Read,
               traffic(rows_blk, 0, rows_blk * 8, 0.1, 0.0)),
        access(q_, task::AccessMode::Read,
               traffic(rows_blk, 0, rows_blk * 8, 0.1, 0.0)),
        access(scratch_, task::AccessMode::Write, traffic(0, 1, 64, 0.9, 0.0),
               b),
    };
    if (real) {
      auto [lo, hi] = row_range(b);
      t.work = [this, lo, hi, b]() {
        const double* pv = vec(p_);
        const double* qv = vec(q_);
        double sum = 0.0;
        for (std::size_t i = lo; i < hi; ++i) sum += pv[i] * qv[i];
        *scratch_slot(b) = sum;
      };
    }
    builder.add_task(std::move(t));
  }
  {
    task::Task t;
    t.label = "reduce_d";
    t.compute_seconds = compute_time(static_cast<double>(nb));
    t.accesses = {
        access(scratch_, task::AccessMode::Read,
               traffic(nb, 0, nb * 64, 0.9, 0.0), task::kAllChunks),
        access(scalars_, task::AccessMode::ReadWrite,
               traffic(2, 2, 64, 0.9, 0.0)),
    };
    if (real) {
      t.work = [this, nb]() {
        double d = 0.0;
        for (std::size_t b = 0; b < nb; ++b) d += *scratch_slot(b);
        auto* sc = reinterpret_cast<double*>(registry_->chunk_ptr(scalars_));
        sc[kSlotD] = d;
      };
    }
    builder.add_task(std::move(t));
  }

  // ---- group 2: z += alpha p ; r -= alpha q ----
  builder.begin_group("axpy_zr");
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = "axpy_zr";
    t.compute_seconds = compute_time(4.0 * static_cast<double>(rows_blk));
    t.accesses = {
        access(scalars_, task::AccessMode::Read, traffic(2, 0, 64, 0.9, 0.0)),
        access(p_, task::AccessMode::Read,
               traffic(rows_blk, 0, rows_blk * 8, 0.1, 0.0)),
        access(q_, task::AccessMode::Read,
               traffic(rows_blk, 0, rows_blk * 8, 0.1, 0.0)),
        access(z_, task::AccessMode::ReadWrite,
               traffic(rows_blk, rows_blk, rows_blk * 8, 0.1, 0.0)),
        access(r_, task::AccessMode::ReadWrite,
               traffic(rows_blk, rows_blk, rows_blk * 8, 0.1, 0.0)),
    };
    if (real) {
      auto [lo, hi] = row_range(b);
      t.work = [this, lo, hi]() {
        const auto* sc =
            reinterpret_cast<const double*>(registry_->chunk_ptr(scalars_));
        const double alpha =
            sc[kSlotD] != 0.0 ? sc[kSlotRho] / sc[kSlotD] : 0.0;
        const double* pv = vec(p_);
        const double* qv = vec(q_);
        double* zv = vec(z_);
        double* rv = vec(r_);
        for (std::size_t i = lo; i < hi; ++i) {
          zv[i] += alpha * pv[i];
          rv[i] -= alpha * qv[i];
        }
      };
    }
    builder.add_task(std::move(t));
  }

  // ---- group 3: rho_new = r . r ----
  builder.begin_group("dot_rr");
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = "dot_rr";
    t.compute_seconds = compute_time(2.0 * static_cast<double>(rows_blk));
    t.accesses = {
        access(r_, task::AccessMode::Read,
               traffic(rows_blk, 0, rows_blk * 8, 0.1, 0.0)),
        access(scratch_, task::AccessMode::Write, traffic(0, 1, 64, 0.9, 0.0),
               b),
    };
    if (real) {
      auto [lo, hi] = row_range(b);
      t.work = [this, lo, hi, b]() {
        const double* rv = vec(r_);
        double sum = 0.0;
        for (std::size_t i = lo; i < hi; ++i) sum += rv[i] * rv[i];
        *scratch_slot(b) = sum;
      };
    }
    builder.add_task(std::move(t));
  }
  {
    task::Task t;
    t.label = "reduce_rho";
    t.compute_seconds = compute_time(static_cast<double>(nb));
    t.accesses = {
        access(scratch_, task::AccessMode::Read,
               traffic(nb, 0, nb * 64, 0.9, 0.0), task::kAllChunks),
        access(scalars_, task::AccessMode::ReadWrite,
               traffic(2, 2, 64, 0.9, 0.0)),
    };
    if (real) {
      t.work = [this, nb]() {
        double rho = 0.0;
        for (std::size_t b = 0; b < nb; ++b) rho += *scratch_slot(b);
        auto* sc = reinterpret_cast<double*>(registry_->chunk_ptr(scalars_));
        sc[kSlotRhoNew] = rho;
      };
    }
    builder.add_task(std::move(t));
  }

  // ---- group 4: p = r + beta p ; rho = rho_new ----
  builder.begin_group("update_p");
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = "update_p";
    t.compute_seconds = compute_time(2.0 * static_cast<double>(rows_blk));
    t.accesses = {
        access(scalars_, task::AccessMode::Read, traffic(2, 0, 64, 0.9, 0.0)),
        access(r_, task::AccessMode::Read,
               traffic(rows_blk, 0, rows_blk * 8, 0.1, 0.0)),
        access(p_, task::AccessMode::ReadWrite,
               traffic(rows_blk, rows_blk, rows_blk * 8, 0.1, 0.0)),
    };
    if (real) {
      auto [lo, hi] = row_range(b);
      t.work = [this, lo, hi]() {
        const auto* sc =
            reinterpret_cast<const double*>(registry_->chunk_ptr(scalars_));
        const double beta =
            sc[kSlotRho] != 0.0 ? sc[kSlotRhoNew] / sc[kSlotRho] : 0.0;
        const double* rv = vec(r_);
        double* pv = vec(p_);
        for (std::size_t i = lo; i < hi; ++i) pv[i] = rv[i] + beta * pv[i];
      };
    }
    builder.add_task(std::move(t));
  }
  {
    // rho = rho_new, serialized after the updates by the scalars RW.
    task::Task t;
    t.label = "advance_rho";
    t.compute_seconds = 0.0;
    t.accesses = {access(scalars_, task::AccessMode::ReadWrite,
                         traffic(1, 1, 64, 0.9, 0.0))};
    if (real) {
      t.work = [this]() {
        auto* sc = reinterpret_cast<double*>(registry_->chunk_ptr(scalars_));
        sc[kSlotRho] = sc[kSlotRhoNew];
      };
    }
    builder.add_task(std::move(t));
  }
}

bool CgApp::verify(hms::ObjectRegistry& registry) {
  if (!real_) return true;
  const auto* sc =
      reinterpret_cast<const double*>(registry.chunk_ptr(scalars_));
  const double rho = sc[kSlotRho];
  // CG on an SPD system must reduce the residual substantially.
  return std::isfinite(rho) && rho < 0.5 * initial_rho_ && rho >= 0.0;
}

}  // namespace tahoe::workloads
