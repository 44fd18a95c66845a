// Lightweight performance models (Eqs. (1)–(6) of the paper line).
//
// Everything here consumes only (a) sampled counter data, (b) device
// datasheet numbers, and (c) two constant factors CF_bw / CF_lat measured
// once per machine by offline calibration (calibration.hpp). The models
// deliberately ignore caching and overlap effects — the constant factors
// are the paper's mechanism for absorbing that inaccuracy cheaply.
#pragma once

#include <cstdint>

#include "memsim/device.hpp"
#include "memsim/machine.hpp"
#include "memsim/sampler.hpp"

namespace tahoe::core {

struct ModelConstants {
  double cf_bw = 1.0;       ///< bandwidth-model constant factor
  double cf_lat = 1.0;      ///< latency-model constant factor
  double bw_peak_nvm = 0.0; ///< measured peak NVM bandwidth (bytes/s)
  double t1 = 0.80;         ///< >= t1 * peak  => bandwidth-sensitive
  double t2 = 0.10;         ///< <= t2 * peak  => latency-sensitive
};

enum class Sensitivity { Bandwidth, Latency, Mixed };

/// Stable lowercase names used in exports (explain JSON, analyzer tables).
constexpr const char* to_string(Sensitivity s) noexcept {
  switch (s) {
    case Sensitivity::Bandwidth:
      return "bandwidth";
    case Sensitivity::Latency:
      return "latency";
    case Sensitivity::Mixed:
      return "mixed";
  }
  return "mixed";
}

class PerfModel {
 public:
  /// Models every tier of `machine`, fastest first, including its per-pair
  /// copy-engine limits.
  PerfModel(ModelConstants constants, const memsim::Machine& machine);

  const ModelConstants& constants() const noexcept { return constants_; }

  std::size_t num_tiers() const noexcept { return machine_.num_tiers(); }
  const memsim::DeviceModel& tier(memsim::TierId t) const {
    return machine_.tier(t);
  }

  /// Eq. (1): estimated main-memory bandwidth consumption of a data unit
  /// during a phase of duration `phase_seconds`:
  ///   accessed bytes / (active fraction of phase time).
  double bandwidth_estimate(const memsim::SampledCounts& s,
                            double phase_seconds) const;

  /// Threshold classification against the measured peak NVM bandwidth.
  Sensitivity classify(double bw_estimate) const;

  // Every benefit and cost below is for one move of a unit from tier `src`
  // to tier `dst`; on the paper's two-tier machine that is NVM -> DRAM for
  // a promotion and DRAM -> NVM for an eviction.

  /// Eq. (2)/(4): predicted per-phase benefit of serving a bandwidth-
  /// sensitive unit's traffic from `dst` instead of `src`. With
  /// `distinguish_rw` the asymmetric read/write bandwidths of the source
  /// are modeled (Eq. (4)); without, all traffic is charged at the source
  /// read bandwidth (Eq. (2)).
  double benefit_bw(const memsim::SampledCounts& s, bool distinguish_rw,
                    memsim::TierId src, memsim::TierId dst) const;

  /// Eq. (3)/(5): latency-sensitivity analogue.
  double benefit_lat(const memsim::SampledCounts& s, bool distinguish_rw,
                     memsim::TierId src, memsim::TierId dst) const;

  /// Full benefit: classify by Eq. (1) and pick the matching equation;
  /// Mixed takes max(benefit_bw, benefit_lat), per the paper.
  double benefit(const memsim::SampledCounts& s, double phase_seconds,
                 bool distinguish_rw, memsim::TierId src,
                 memsim::TierId dst) const;

  /// Eq. (6): data-movement cost after subtracting the overlappable
  /// window: max(copy_seconds - overlap_window, 0).
  double movement_cost(std::uint64_t bytes, double overlap_window,
                       memsim::TierId src, memsim::TierId dst) const;

  /// Raw copy time: bytes over the pair's effective bandwidth — min(the
  /// pair's copy-engine limit (Machine::copy_bw_for), source read
  /// bandwidth, destination write bandwidth). Direction-aware: asymmetric
  /// NVM makes NVM-bound copies slower.
  double copy_seconds(std::uint64_t bytes, memsim::TierId src,
                      memsim::TierId dst) const;

 private:
  ModelConstants constants_;
  memsim::Machine machine_;
};

}  // namespace tahoe::core
