#include "workloads/sp.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace tahoe::workloads {

SpApp::Config SpApp::config_for(Scale scale, Kind kind) {
  Config c;
  c.kind = kind;
  if (scale == Scale::Test) {
    c.grid = 20;
    c.blocks = 4;
    c.iterations = 6;
  } else {
    c.grid = 176;  // 176^3 cells (NPB class-C scale)
    c.blocks = 16;
    c.iterations = 15;
  }
  return c;
}

void SpApp::setup(hms::ObjectRegistry& registry,
                  const hms::ChunkingPolicy& chunking) {
  (void)chunking;  // multi-dimensional arrays with aliasing: not partitioned
  registry_ = &registry;
  real_ = registry.arena(registry.capacity_tier()).backing() == hms::Backing::Real;
  const std::size_t n = config_.grid;
  cells_ = n * n * n;
  const std::uint64_t cell_bytes = cells_ * sizeof(double);
  const bool bt = config_.kind == Kind::BT;

  // 5 solution components; lhs holds per-line coefficients (SP: 5 diag
  // bands; BT: 3 dense 5x5 blocks per cell -> 3x bigger).
  u_ = registry.create("u", 5 * cell_bytes, registry.capacity_tier());
  rhs_ = registry.create("rhs", 5 * cell_bytes, registry.capacity_tier());
  forcing_ = registry.create("forcing", 5 * cell_bytes, registry.capacity_tier());
  lhs_ = registry.create("lhs", (bt ? 15 : 5) * cell_bytes, registry.capacity_tier());
  us_ = registry.create("us", cell_bytes, registry.capacity_tier());
  vs_ = registry.create("vs", cell_bytes, registry.capacity_tier());
  ws_ = registry.create("ws", cell_bytes, registry.capacity_tier());
  qs_ = registry.create("qs", cell_bytes, registry.capacity_tier());
  rho_i_ = registry.create("rho_i", cell_bytes, registry.capacity_tier());
  square_ = registry.create("square", cell_bytes, registry.capacity_tier());
  // Halo-exchange staging buffers: two faces x 5 components.
  const std::uint64_t buf_bytes = 10 * n * n * sizeof(double);
  in_buffer_ = registry.create("in_buffer", buf_bytes, registry.capacity_tier());
  out_buffer_ = registry.create("out_buffer", buf_bytes, registry.capacity_tier());

  const double iters = static_cast<double>(config_.iterations);
  const auto dc = static_cast<double>(cells_);
  registry.get_mutable(u_).static_ref_estimate = 10 * dc * iters;
  registry.get_mutable(rhs_).static_ref_estimate = 30 * dc * iters;
  registry.get_mutable(forcing_).static_ref_estimate = 5 * dc * iters;
  registry.get_mutable(lhs_).static_ref_estimate =
      (bt ? 45 : 15) * dc * iters;
  for (const hms::ObjectId id : {us_, vs_, ws_, qs_, rho_i_, square_}) {
    registry.get_mutable(id).static_ref_estimate = dc * iters;
  }
  const auto db = static_cast<double>(10 * n * n);
  registry.get_mutable(in_buffer_).static_ref_estimate = 40 * db * iters;
  registry.get_mutable(out_buffer_).static_ref_estimate = 40 * db * iters;

  if (!real_) return;
  double* uv = arr(u_);
  for (std::size_t i = 0; i < 5 * cells_; ++i) {
    uv[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
  }
  double* fv = arr(forcing_);
  for (std::size_t i = 0; i < 5 * cells_; ++i) {
    fv[i] = 0.01 * static_cast<double>(i % 13);
  }
}

double* SpApp::arr(hms::ObjectId id) const {
  return reinterpret_cast<double*>(registry_->chunk_ptr(id));
}

void SpApp::solve_group(task::GraphBuilder& builder, const char* label) {
  const std::size_t nb = config_.blocks;
  const bool bt = config_.kind == Kind::BT;
  const std::uint64_t cells_blk = cells_ / nb;
  const std::uint64_t lhs_elems = (bt ? 15ULL : 5ULL) * cells_blk;
  const std::uint64_t rhs_elems = 5ULL * cells_blk;
  // BT's dense block solves do ~5x the flops of SP's scalar pentadiagonal.
  const double flops =
      static_cast<double>(rhs_elems) * (bt ? 40.0 : 12.0);
  hms::ObjectRegistry* reg = registry_;
  const std::size_t cells = cells_;

  builder.begin_group(label);
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = label;
    t.compute_seconds = compute_time(flops);
    t.accesses = {
        // Line recurrences: strongly serialized -> latency-sensitive.
        access(lhs_, task::AccessMode::ReadWrite,
               traffic(lhs_elems, lhs_elems / 2, lhs_elems * 8, 0.10,
                       bt ? 0.85 : 0.80)),
        access(rhs_, task::AccessMode::ReadWrite,
               traffic(rhs_elems, rhs_elems, rhs_elems * 8, 0.15, 0.45)),
    };
    if (real_) {
      const std::size_t lo = cells / nb * b * 5;
      const std::size_t hi =
          (b + 1 == nb) ? cells * 5 : cells / nb * (b + 1) * 5;
      t.work = [reg, this, lo, hi]() {
        // Damped forward/backward line sweep: numerically contracting.
        double* rhs = arr(rhs_);
        double carry = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          rhs[i] = 0.9 * rhs[i] + 0.05 * carry;
          carry = rhs[i];
        }
        carry = 0.0;
        for (std::size_t i = hi; i-- > lo;) {
          rhs[i] = 0.95 * rhs[i] + 0.02 * carry;
          carry = rhs[i];
        }
      };
    }
    builder.add_task(std::move(t));
  }
}

void SpApp::build_iteration(task::GraphBuilder& builder,
                            std::size_t iteration) {
  (void)iteration;
  if (builder.keep_previous()) return;
  const std::size_t n = config_.grid;
  const std::size_t nb = config_.blocks;
  const std::uint64_t cells_blk = cells_ / nb;
  const std::uint64_t c5 = 5ULL * cells_blk;
  hms::ObjectRegistry* reg = registry_;
  (void)reg;

  // ---- compute_rhs ----
  builder.begin_group("compute_rhs");
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = "compute_rhs";
    t.compute_seconds = compute_time(static_cast<double>(c5) * 12.0);
    t.accesses = {
        access(u_, task::AccessMode::Read,
               traffic(6 * c5, 0, c5 * 8, 0.35, 0.05)),
        access(forcing_, task::AccessMode::Read,
               traffic(c5, 0, c5 * 8, 0.05, 0.0)),
        access(rhs_, task::AccessMode::Write,
               traffic(0, c5, c5 * 8, 0.05, 0.0)),
        access(us_, task::AccessMode::ReadWrite,
               traffic(cells_blk, cells_blk, cells_blk * 8, 0.2, 0.0)),
        access(vs_, task::AccessMode::ReadWrite,
               traffic(cells_blk, cells_blk, cells_blk * 8, 0.2, 0.0)),
        access(ws_, task::AccessMode::ReadWrite,
               traffic(cells_blk, cells_blk, cells_blk * 8, 0.2, 0.0)),
        access(qs_, task::AccessMode::ReadWrite,
               traffic(cells_blk, cells_blk, cells_blk * 8, 0.2, 0.0)),
        access(rho_i_, task::AccessMode::ReadWrite,
               traffic(cells_blk, cells_blk, cells_blk * 8, 0.2, 0.0)),
        access(square_, task::AccessMode::ReadWrite,
               traffic(cells_blk, cells_blk, cells_blk * 8, 0.2, 0.0)),
    };
    if (real_) {
      const std::size_t lo = cells_ / nb * b;
      const std::size_t hi = (b + 1 == nb) ? cells_ : cells_ / nb * (b + 1);
      t.work = [this, lo, hi]() {
        const double* uv = arr(u_);
        const double* fv = arr(forcing_);
        double* rhs = arr(rhs_);
        double* sq = arr(square_);
        for (std::size_t i = lo; i < hi; ++i) {
          sq[i] = uv[i] * uv[i];
          for (std::size_t k = 0; k < 5; ++k) {
            rhs[5 * i + k] = 0.2 * uv[5 * i + k] + 0.1 * fv[5 * i + k];
          }
        }
      };
    }
    builder.add_task(std::move(t));
  }

  // ---- directional solves ----
  solve_group(builder, "x_solve");
  solve_group(builder, "y_solve");
  solve_group(builder, "z_solve");

  // ---- halo exchange: heavy streaming over small buffers ----
  builder.begin_group("exchange");
  const std::uint64_t buf_elems = 10ULL * n * n;
  const std::uint64_t passes = 96;  // repeated pack/unpack sweeps
  for (std::size_t b = 0; b < nb; ++b) {
    const std::uint64_t share = buf_elems * passes / nb;
    task::Task t;
    t.label = "exchange";
    t.compute_seconds = compute_time(static_cast<double>(share) * 2.0);
    t.accesses = {
        access(out_buffer_, task::AccessMode::Write,
               traffic(0, share, buf_elems * 8 / nb, 0.0, 0.0)),
        access(in_buffer_, task::AccessMode::Read,
               traffic(share, 0, buf_elems * 8 / nb, 0.0, 0.0)),
        access(rhs_, task::AccessMode::ReadWrite,
               traffic(share / 4, share / 4, c5 * 8 / 8, 0.1, 0.0)),
    };
    if (real_) {
      const std::size_t lo = buf_elems / nb * b;
      const std::size_t hi =
          (b + 1 == nb) ? buf_elems : buf_elems / nb * (b + 1);
      t.work = [this, lo, hi]() {
        const double* in = arr(in_buffer_);
        double* out = arr(out_buffer_);
        for (std::size_t i = lo; i < hi; ++i) out[i] = 0.5 * in[i];
      };
    }
    builder.add_task(std::move(t));
  }

  // ---- add: u += rhs ----
  builder.begin_group("add");
  for (std::size_t b = 0; b < nb; ++b) {
    task::Task t;
    t.label = "add";
    t.compute_seconds = compute_time(static_cast<double>(c5));
    t.accesses = {
        access(u_, task::AccessMode::ReadWrite,
               traffic(c5, c5, c5 * 8, 0.05, 0.0)),
        access(rhs_, task::AccessMode::Read,
               traffic(c5, 0, c5 * 8, 0.05, 0.0)),
    };
    if (real_) {
      const std::size_t lo = cells_ / nb * b * 5;
      const std::size_t hi =
          (b + 1 == nb) ? cells_ * 5 : cells_ / nb * (b + 1) * 5;
      t.work = [this, lo, hi]() {
        double* uv = arr(u_);
        const double* rhs = arr(rhs_);
        for (std::size_t i = lo; i < hi; ++i) {
          uv[i] = 0.98 * uv[i] + 0.01 * rhs[i];
        }
      };
    }
    builder.add_task(std::move(t));
  }
}

bool SpApp::verify(hms::ObjectRegistry& registry) {
  if (!real_) return true;
  const auto* uv = reinterpret_cast<const double*>(registry.chunk_ptr(u_));
  double norm = 0.0;
  for (std::size_t i = 0; i < 5 * cells_; ++i) {
    if (!std::isfinite(uv[i])) return false;
    norm += uv[i] * uv[i];
  }
  // The damped update keeps the solution bounded by its initial scale.
  return norm > 0.0 && norm < 4.0 * static_cast<double>(5 * cells_);
}

}  // namespace tahoe::workloads
