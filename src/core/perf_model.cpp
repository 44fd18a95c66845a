#include "core/perf_model.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace tahoe::core {

PerfModel::PerfModel(ModelConstants constants, const memsim::Machine& machine)
    : constants_(constants), machine_(machine) {
  TAHOE_REQUIRE(machine_.num_tiers() >= 2,
                "perf model needs at least two tiers");
  TAHOE_REQUIRE(machine_.copy_engine_bw > 0.0,
                "copy bandwidth must be positive");
  TAHOE_REQUIRE(machine_.sample_interval > 0,
                "sample interval must be positive");
  TAHOE_REQUIRE(constants_.t2 < constants_.t1, "thresholds must satisfy t2 < t1");
}

double PerfModel::bandwidth_estimate(const memsim::SampledCounts& s,
                                     double phase_seconds) const {
  if (phase_seconds <= 0.0) return 0.0;
  const double active = s.active_fraction();
  if (active <= 0.0) return 0.0;
  const std::uint64_t interval = machine_.sample_interval;
  const double accessed_bytes =
      (s.est_loads(interval) + s.est_stores(interval)) *
      static_cast<double>(kCacheLine);
  return accessed_bytes / (active * phase_seconds);
}

Sensitivity PerfModel::classify(double bw_estimate) const {
  TAHOE_REQUIRE(constants_.bw_peak_nvm > 0.0,
                "classify requires a calibrated peak bandwidth");
  const double ratio = bw_estimate / constants_.bw_peak_nvm;
  if (ratio >= constants_.t1) return Sensitivity::Bandwidth;
  if (ratio <= constants_.t2) return Sensitivity::Latency;
  return Sensitivity::Mixed;
}

double PerfModel::benefit_bw(const memsim::SampledCounts& s,
                             bool distinguish_rw, memsim::TierId src,
                             memsim::TierId dst) const {
  const memsim::DeviceModel& from = machine_.tier(src);
  const memsim::DeviceModel& to = machine_.tier(dst);
  const double line = static_cast<double>(kCacheLine);
  const double loads = s.est_loads(machine_.sample_interval);
  const double stores = s.est_stores(machine_.sample_interval);
  double src_time = 0.0;
  if (distinguish_rw) {
    // Eq. (4): reads and writes charged at the source read/write bandwidths.
    src_time = loads * line / from.read_bw + stores * line / from.write_bw;
  } else {
    // Eq. (2): a single source bandwidth (read) for all traffic.
    src_time = (loads + stores) * line / from.read_bw;
  }
  const double dst_time = (loads + stores) * line / to.read_bw;
  return (src_time - dst_time) * constants_.cf_bw;
}

double PerfModel::benefit_lat(const memsim::SampledCounts& s,
                              bool distinguish_rw, memsim::TierId src,
                              memsim::TierId dst) const {
  const memsim::DeviceModel& from = machine_.tier(src);
  const memsim::DeviceModel& to = machine_.tier(dst);
  const double loads = s.est_loads(machine_.sample_interval);
  const double stores = s.est_stores(machine_.sample_interval);
  double src_time = 0.0;
  if (distinguish_rw) {
    // Eq. (5).
    src_time = loads * from.read_lat_s + stores * from.write_lat_s;
  } else {
    // Eq. (3).
    src_time = (loads + stores) * from.read_lat_s;
  }
  const double dst_time = (loads + stores) * to.read_lat_s;
  return (src_time - dst_time) * constants_.cf_lat;
}

double PerfModel::benefit(const memsim::SampledCounts& s,
                          double phase_seconds, bool distinguish_rw,
                          memsim::TierId src, memsim::TierId dst) const {
  if (s.accesses() == 0) return 0.0;
  switch (classify(bandwidth_estimate(s, phase_seconds))) {
    case Sensitivity::Bandwidth:
      return benefit_bw(s, distinguish_rw, src, dst);
    case Sensitivity::Latency:
      return benefit_lat(s, distinguish_rw, src, dst);
    case Sensitivity::Mixed:
      return std::max(benefit_bw(s, distinguish_rw, src, dst),
                      benefit_lat(s, distinguish_rw, src, dst));
  }
  TAHOE_UNREACHABLE("bad sensitivity");
}

double PerfModel::movement_cost(std::uint64_t bytes, double overlap_window,
                                memsim::TierId src, memsim::TierId dst) const {
  return std::max(copy_seconds(bytes, src, dst) - overlap_window, 0.0);
}

double PerfModel::copy_seconds(std::uint64_t bytes, memsim::TierId src,
                               memsim::TierId dst) const {
  const double bw =
      std::min({machine_.copy_bw_for(src, dst), machine_.tier(src).read_bw,
                machine_.tier(dst).write_bw});
  return static_cast<double>(bytes) / bw;
}

}  // namespace tahoe::core
