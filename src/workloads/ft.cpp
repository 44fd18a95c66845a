#include "workloads/ft.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace tahoe::workloads {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Largest divisor of `n` (a power of two) not exceeding `limit`.
std::size_t pow2_divisor_at_most(std::size_t n, std::size_t limit) {
  std::size_t d = 1;
  while (d * 2 <= limit && d * 2 <= n && n % (d * 2) == 0) d *= 2;
  return d;
}

}  // namespace

FtApp::Config FtApp::config_for(Scale scale) {
  Config c;
  if (scale == Scale::Test) {
    c.log2_segment = 10;  // 1024-point segments
    c.segments = 16;
    c.iterations = 6;
  } else {
    c.log2_segment = 16;  // 65536-point segments
    c.segments = 1024;    // 1 GiB field
    c.iterations = 12;
  }
  return c;
}

void FtApp::setup(hms::ObjectRegistry& registry,
                  const hms::ChunkingPolicy& chunking) {
  registry_ = &registry;
  real_ = registry.arena(registry.capacity_tier()).backing() == hms::Backing::Real;
  const std::size_t n = total_elems();
  const std::uint64_t bytes = n * sizeof(Cplx);

  // Runtime-driven partitioning: the policy proposes a chunk count; align
  // it to a divisor of the segment count so chunks hold whole segments.
  const std::size_t suggested = chunking.chunks_for(bytes, true);
  chunks_ = pow2_divisor_at_most(config_.segments, suggested);
  elems_per_chunk_ = n / chunks_;

  field_ = registry.create("field", bytes, registry.capacity_tier(), chunks_);
  twiddle_ = registry.create("twiddle", segment_len() / 2 * sizeof(Cplx),
                             registry.capacity_tier());
  checksum_ = registry.create("checksum", chunks_ * kCacheLine, registry.capacity_tier(),
                              chunks_);

  const double iters = static_cast<double>(config_.iterations);
  const auto dn = static_cast<double>(n);
  const double logn = static_cast<double>(config_.log2_segment);
  registry.get_mutable(field_).static_ref_estimate = 4 * dn * logn * iters;
  registry.get_mutable(twiddle_).static_ref_estimate = dn * logn * iters;

  if (!real_) return;
  // Deterministic initial field with unit-scale energy.
  for (std::size_t c = 0; c < chunks_; ++c) {
    Cplx* data = chunk_data(c);
    for (std::size_t i = 0; i < elems_per_chunk_; ++i) {
      const auto g = static_cast<double>(c * elems_per_chunk_ + i);
      data[i] = Cplx(std::sin(0.001 * g), std::cos(0.003 * g));
    }
  }
  auto* tw = reinterpret_cast<Cplx*>(registry.chunk_ptr(twiddle_));
  const std::size_t half = segment_len() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const double ang = -2.0 * kPi * static_cast<double>(i) /
                       static_cast<double>(segment_len());
    tw[i] = Cplx(std::cos(ang), std::sin(ang));
  }
}

FtApp::Cplx* FtApp::chunk_data(std::size_t c) const {
  return reinterpret_cast<Cplx*>(registry_->chunk_ptr(field_, c));
}

void FtApp::fft_chunk(std::size_t c, bool inverse) const {
  const std::size_t seg = segment_len();
  const auto* tw =
      reinterpret_cast<const Cplx*>(registry_->chunk_ptr(twiddle_));
  Cplx* base = chunk_data(c);
  const std::size_t segs_here = elems_per_chunk_ / seg;
  for (std::size_t s = 0; s < segs_here; ++s) {
    Cplx* a = base + s * seg;
    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < seg; ++i) {
      std::size_t bit = seg >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
    }
    // Iterative radix-2 butterflies using the shared twiddle table.
    for (std::size_t len = 2; len <= seg; len <<= 1) {
      const std::size_t stride = seg / len;
      for (std::size_t i = 0; i < seg; i += len) {
        for (std::size_t k = 0; k < len / 2; ++k) {
          Cplx w = tw[k * stride];
          if (inverse) w = std::conj(w);
          const Cplx u = a[i + k];
          const Cplx v = a[i + k + len / 2] * w;
          a[i + k] = u + v;
          a[i + k + len / 2] = u - v;
        }
      }
    }
    if (inverse) {
      const double inv = 1.0 / static_cast<double>(seg);
      for (std::size_t i = 0; i < seg; ++i) a[i] *= inv;
    }
  }
}

void FtApp::twist_chunk(std::size_t c, double sign) const {
  Cplx* data = chunk_data(c);
  for (std::size_t i = 0; i < elems_per_chunk_; ++i) {
    const auto g = static_cast<double>(c * elems_per_chunk_ + i);
    const double ang = sign * 1e-4 * g;
    data[i] *= Cplx(std::cos(ang), std::sin(ang));
  }
}

void FtApp::build_iteration(task::GraphBuilder& builder,
                            std::size_t iteration) {
  (void)iteration;
  if (builder.keep_previous()) return;
  const auto n_c = static_cast<std::uint64_t>(elems_per_chunk_);
  const std::uint64_t chunk_bytes = n_c * sizeof(Cplx);
  const auto logn = static_cast<std::uint64_t>(config_.log2_segment);
  const std::uint64_t tw_bytes = segment_len() / 2 * sizeof(Cplx);

  auto fft_group = [&](const char* label, bool inverse) {
    builder.begin_group(label);
    for (std::size_t c = 0; c < chunks_; ++c) {
      task::Task t;
      t.label = label;
      // Radix-2 butterflies are strided and scalar: ~1 GF/s effective,
      // an 8x derating of the streaming-kernel rate.
      t.compute_seconds =
          compute_time(40.0 * static_cast<double>(n_c * logn));
      // Butterfly stages reuse each segment from cache: the *memory-level*
      // traffic is ~one pass over the chunk (stream in, stream out).
      t.accesses = {
          access(field_, task::AccessMode::ReadWrite,
                 traffic(n_c, n_c, chunk_bytes, 0.05, 0.20), c),
          access(twiddle_, task::AccessMode::Read,
                 traffic(n_c, 0, tw_bytes, 0.9, 0.0)),
      };
      if (real_) {
        t.work = [this, c, inverse]() { fft_chunk(c, inverse); };
      }
      builder.add_task(std::move(t));
    }
  };

  fft_group("fft_fwd", false);

  builder.begin_group("evolve");
  for (std::size_t c = 0; c < chunks_; ++c) {
    task::Task t;
    t.label = "evolve";
    t.compute_seconds = compute_time(8.0 * static_cast<double>(n_c));
    t.accesses = {access(field_, task::AccessMode::ReadWrite,
                         traffic(n_c, n_c, chunk_bytes, 0.0, 0.0), c)};
    if (real_) {
      t.work = [this, c]() { twist_chunk(c, +1.0); };
    }
    builder.add_task(std::move(t));
  }

  fft_group("fft_inv", true);

  builder.begin_group("checksum");
  for (std::size_t c = 0; c < chunks_; ++c) {
    task::Task t;
    t.label = "checksum";
    t.compute_seconds = compute_time(4.0 * static_cast<double>(n_c));
    t.accesses = {
        access(field_, task::AccessMode::Read,
               traffic(n_c, 0, chunk_bytes, 0.05, 0.0), c),
        access(checksum_, task::AccessMode::Write, traffic(0, 1, 64, 0.9, 0.0),
               c),
    };
    if (real_) {
      t.work = [this, c]() {
        const Cplx* data = chunk_data(c);
        double energy = 0.0;
        for (std::size_t i = 0; i < elems_per_chunk_; ++i) {
          energy += std::norm(data[i]);
        }
        *reinterpret_cast<double*>(registry_->chunk_ptr(checksum_, c)) =
            energy;
      };
    }
    builder.add_task(std::move(t));
  }
}

bool FtApp::verify(hms::ObjectRegistry& registry) {
  if (!real_) return true;
  // The FFT/evolve/inverse pipeline is unitary (up to the 1/N scaling the
  // inverse applies): total energy must match the initial field's.
  double measured = 0.0;
  for (std::size_t c = 0; c < chunks_; ++c) {
    measured +=
        *reinterpret_cast<const double*>(registry.chunk_ptr(checksum_, c));
  }
  double expected = 0.0;
  for (std::size_t i = 0; i < total_elems(); ++i) {
    const auto g = static_cast<double>(i);
    expected += std::sin(0.001 * g) * std::sin(0.001 * g) +
                std::cos(0.003 * g) * std::cos(0.003 * g);
  }
  return std::isfinite(measured) &&
         std::fabs(measured - expected) / expected < 1e-9;
}

}  // namespace tahoe::workloads
