#include "workloads/nekproxy.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace tahoe::workloads {
namespace {

// Field indices.
constexpr std::size_t kVx = 0, kVy = 1, kVz = 2;
constexpr std::size_t kVxp = 3, kVyp = 4, kVzp = 5;
constexpr std::size_t kPr = 6, kT = 7;
constexpr std::size_t kS0 = 8;  // kS0..kS5 scratch

}  // namespace

NekProxyApp::Config NekProxyApp::config_for(Scale scale) {
  Config c;
  if (scale == Scale::Test) {
    c.points = 1 << 13;
    c.blocks = 4;
    c.iterations = 8;
    c.drift_at = 0;
  } else {
    c.points = 4u << 20;  // 32 MiB per field
    c.blocks = 16;
    c.iterations = 15;
    c.drift_at = 0;
  }
  return c;
}

void NekProxyApp::setup(hms::ObjectRegistry& registry,
                        const hms::ChunkingPolicy& chunking) {
  (void)chunking;
  registry_ = &registry;
  real_ = registry.arena(registry.capacity_tier()).backing() == hms::Backing::Real;
  const std::uint64_t fbytes = config_.points * sizeof(double);
  const double iters = static_cast<double>(config_.iterations);
  const auto dp = static_cast<double>(config_.points);

  static const char* kGeoNames[12] = {"xm", "ym", "zm", "jac", "mass", "gxx",
                                      "gyy", "gzz", "gxy", "gxz", "gyz",
                                      "bm"};
  geometry_.clear();
  for (const char* name : kGeoNames) {
    const hms::ObjectId id = registry.create(name, fbytes, registry.capacity_tier());
    registry.get_mutable(id).static_ref_estimate = 4 * dp * iters;
    geometry_.push_back(id);
  }

  static const char* kFieldNames[14] = {"vx", "vy", "vz", "vxp", "vyp",
                                        "vzp", "pr", "t", "s0", "s1",
                                        "s2", "s3", "s4", "s5"};
  fields_.clear();
  for (const char* name : kFieldNames) {
    const hms::ObjectId id = registry.create(name, fbytes, registry.capacity_tier());
    registry.get_mutable(id).static_ref_estimate = 10 * dp * iters;
    fields_.push_back(id);
  }

  misc_.clear();
  const std::uint64_t mbytes = fbytes / 8;
  for (std::size_t i = 0; i < 22; ++i) {
    const hms::ObjectId id =
        registry.create("w" + std::to_string(i), mbytes, registry.capacity_tier());
    registry.get_mutable(id).static_ref_estimate = dp / 4 * iters;
    misc_.push_back(id);
  }

  if (!real_) return;
  for (const hms::ObjectId id : fields_) {
    double* f = field(id);
    for (std::size_t i = 0; i < config_.points; ++i) {
      f[i] = 0.01 * std::sin(0.001 * static_cast<double>(i + id));
    }
  }
  for (const hms::ObjectId id : geometry_) {
    double* f = field(id);
    for (std::size_t i = 0; i < config_.points; ++i) f[i] = 1.0;
  }
}

double* NekProxyApp::field(hms::ObjectId id) const {
  return reinterpret_cast<double*>(registry_->chunk_ptr(id));
}

void NekProxyApp::build_iteration(task::GraphBuilder& builder,
                                  std::size_t iteration) {
  // The declaration changes only at the drift.
  if (iteration != config_.drift_at && builder.keep_previous()) return;
  const std::size_t nb = config_.blocks;
  const std::uint64_t pts = config_.points / nb;
  const std::uint64_t fb = pts * 8;
  const bool drifted =
      config_.drift_at != 0 && iteration >= config_.drift_at;
  const std::uint64_t adv_scale = drifted ? 3 : 1;

  // Helper: one group of `nb` elementwise tasks with the given accesses
  // and a real kernel applying a bounded update to `out`.
  auto group = [&](const std::string& name,
                   std::vector<task::DataAccess> accesses,
                   hms::ObjectId out_field, double flops_per_pt) {
    builder.begin_group(name);
    for (std::size_t b = 0; b < nb; ++b) {
      task::Task t;
      t.label = name;
      t.compute_seconds =
          compute_time(flops_per_pt * static_cast<double>(pts));
      t.accesses = accesses;
      if (real_ && out_field != hms::kInvalidObject) {
        const std::size_t lo = pts * b;
        const std::size_t hi = pts * (b + 1);
        t.work = [this, out_field, lo, hi]() {
          double* f = field(out_field);
          for (std::size_t i = lo; i < hi; ++i) {
            f[i] = 0.99 * f[i] + 1e-6;
          }
        };
      }
      builder.add_task(std::move(t));
    }
  };

  const auto R = task::AccessMode::Read;
  const auto W = task::AccessMode::Write;
  const auto RW = task::AccessMode::ReadWrite;

  // ---- advection: semi-Lagrangian gathers (latency-leaning) ----
  const hms::ObjectId vel[3] = {fields_[kVx], fields_[kVy], fields_[kVz]};
  const hms::ObjectId velp[3] = {fields_[kVxp], fields_[kVyp], fields_[kVzp]};
  static const char* kAdvNames[3] = {"advect_x", "advect_y", "advect_z"};
  for (std::size_t d = 0; d < 3; ++d) {
    group(kAdvNames[d],
          {
              access(velp[d], R,
                     traffic(adv_scale * 4 * pts, 0, config_.points * 8, 0.45,
                             0.40, 0.15)),
              access(geometry_[0 + d], R, traffic(pts, 0, fb, 0.2, 0.0)),
              access(geometry_[3], R, traffic(pts, 0, fb, 0.2, 0.0)),  // jac
              access(misc_[d], R, traffic(pts / 4, 0, fb / 8, 0.5, 0.0)),
              access(vel[d], W, traffic(0, pts, fb, 0.1, 0.0)),
          },
          vel[d], 12.0);
  }

  // ---- diffusion: stencil over velocity (bandwidth+reuse) ----
  group("diffuse",
        {
            access(vel[0], RW, traffic(5 * pts, pts, fb, 0.6, 0.05)),
            access(vel[1], RW, traffic(5 * pts, pts, fb, 0.6, 0.05)),
            access(vel[2], RW, traffic(5 * pts, pts, fb, 0.6, 0.05)),
            access(geometry_[4], R, traffic(pts, 0, fb, 0.2, 0.0)),  // mass
            access(geometry_[5], R, traffic(pts, 0, fb, 0.2, 0.0)),
            access(misc_[3], R, traffic(pts / 4, 0, fb / 8, 0.5, 0.0)),
        },
        fields_[kVx], 20.0);

  // ---- pressure RHS ----
  group("pr_rhs",
        {
            access(vel[0], R, traffic(pts, 0, fb, 0.15, 0.0)),
            access(vel[1], R, traffic(pts, 0, fb, 0.15, 0.0)),
            access(vel[2], R, traffic(pts, 0, fb, 0.15, 0.0)),
            access(fields_[kS0], W, traffic(0, pts, fb, 0.1, 0.0)),
            access(misc_[4], R, traffic(pts / 4, 0, fb / 8, 0.5, 0.0)),
        },
        fields_[kS0], 8.0);

  // ---- pressure solve: three inner sweeps, each with its own hot set ----
  for (std::size_t s = 0; s < 3; ++s) {
    group("pr_solve_" + std::to_string(s),
          {
              access(fields_[kPr], RW,
                     traffic(6 * pts, 2 * pts, config_.points * 8, 0.35,
                             0.30)),
              access(fields_[kS0], R, traffic(pts, 0, fb, 0.2, 0.0)),
              access(fields_[kS0 + 1 + s], RW,
                     traffic(2 * pts, pts, fb, 0.3, 0.1)),
              access(geometry_[6 + s], R, traffic(2 * pts, 0, fb, 0.25, 0.0)),
              access(misc_[5 + 2 * s], R,
                     traffic(pts / 2, 0, fb / 8, 0.5, 0.0)),
              access(misc_[6 + 2 * s], R,
                     traffic(pts / 2, 0, fb / 8, 0.5, 0.0)),
          },
          fields_[kPr], 15.0);
  }

  // ---- projection ----
  group("project",
        {
            access(fields_[kPr], R, traffic(2 * pts, 0, fb, 0.3, 0.1)),
            access(vel[0], RW, traffic(pts, pts, fb, 0.2, 0.0)),
            access(vel[1], RW, traffic(pts, pts, fb, 0.2, 0.0)),
            access(vel[2], RW, traffic(pts, pts, fb, 0.2, 0.0)),
            access(geometry_[3], R, traffic(pts, 0, fb, 0.2, 0.0)),
            access(misc_[11], R, traffic(pts / 4, 0, fb / 8, 0.5, 0.0)),
        },
        fields_[kVx], 10.0);

  // ---- thermal transport ----
  group("thermal",
        {
            access(fields_[kT], RW, traffic(5 * pts, pts, fb, 0.5, 0.1)),
            access(vel[0], R, traffic(pts, 0, fb, 0.2, 0.0)),
            access(geometry_[4], R, traffic(pts, 0, fb, 0.2, 0.0)),
            access(misc_[12], R, traffic(pts / 4, 0, fb / 8, 0.5, 0.0)),
            access(misc_[13], R, traffic(pts / 4, 0, fb / 8, 0.5, 0.0)),
        },
        fields_[kT], 14.0);

  // ---- spectral filter: coefficient-heavy streaming ----
  {
    std::vector<task::DataAccess> acc = {
        access(vel[0], RW, traffic(2 * pts, pts, fb, 0.1, 0.0)),
        access(vel[1], RW, traffic(2 * pts, pts, fb, 0.1, 0.0)),
        access(vel[2], RW, traffic(2 * pts, pts, fb, 0.1, 0.0)),
    };
    for (std::size_t w = 14; w < 22; ++w) {
      acc.push_back(
          access(misc_[w], R, traffic(pts / 2, 0, fb / 8, 0.4, 0.0)));
    }
    group("filter", acc, fields_[kVy], 18.0);
  }

  // ---- save previous velocities ----
  {
    std::vector<task::DataAccess> acc;
    for (std::size_t d = 0; d < 3; ++d) {
      acc.push_back(access(vel[d], R, traffic(pts, 0, fb, 0.05, 0.0)));
      acc.push_back(access(velp[d], W, traffic(0, pts, fb, 0.05, 0.0)));
    }
    group("copy_prev", acc, fields_[kVxp], 2.0);
  }
}

bool NekProxyApp::verify(hms::ObjectRegistry& registry) {
  if (!real_) return true;
  (void)registry;
  for (const hms::ObjectId id : fields_) {
    const double* f = field(id);
    for (std::size_t i = 0; i < config_.points; i += 997) {
      if (!std::isfinite(f[i])) return false;
    }
  }
  return true;
}

}  // namespace tahoe::workloads
