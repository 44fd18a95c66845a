// Memory-device timing models.
//
// A DeviceModel captures the four quantities the paper line's performance
// models depend on: read latency, write latency, read bandwidth and write
// bandwidth. Presets reproduce the NVMDB/Optane characteristics table
// (DRAM, STT-RAM, PCRAM, ReRAM, Optane PM) plus the parametric
// "1/k DRAM bandwidth" and "k x DRAM latency" configurations used by the
// emulation sweeps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "memsim/access.hpp"

namespace tahoe::memsim {

struct DeviceModel {
  std::string name;
  double read_lat_s = 0.0;    ///< per-cache-line read latency (seconds)
  double write_lat_s = 0.0;   ///< per-cache-line write latency (seconds)
  double read_bw = 0.0;       ///< sustained read bandwidth (bytes/second)
  double write_bw = 0.0;      ///< sustained write bandwidth (bytes/second)
  std::uint64_t capacity = 0; ///< device capacity in bytes

  /// Seconds of *device channel occupancy* needed to serve the given
  /// main-memory traffic at full bandwidth. This is the "demand" the fluid
  /// simulator shares among concurrent flows.
  double channel_seconds(const MemTraffic& t) const noexcept;

  /// Seconds spent in the serialized latency chain of the traffic: the
  /// dep_frac portion pays full per-access latency back-to-back; the
  /// independent portion is overlapped by hardware memory-level
  /// parallelism (`mlp` outstanding misses).
  double latency_seconds(const MemTraffic& t, double mlp) const noexcept;
};

/// Factory functions for the canonical devices. Capacities are defaults
/// and can be overridden by the caller.
namespace devices {

DeviceModel dram(std::uint64_t capacity);
DeviceModel stt_ram(std::uint64_t capacity);
DeviceModel pcram(std::uint64_t capacity);
DeviceModel reram(std::uint64_t capacity);
DeviceModel optane_pm(std::uint64_t capacity);

/// On-package high-bandwidth memory (HBM2-class): ~3x DRAM bandwidth at
/// slightly higher load-to-use latency, small capacity.
DeviceModel hbm(std::uint64_t capacity);

/// CXL-attached DRAM expander: DRAM-class bandwidth over a link that adds
/// ~100ns of round-trip latency and caps sustained throughput below local
/// DRAM.
DeviceModel cxl_dram(std::uint64_t capacity);

/// NVM emulated as DRAM with bandwidth scaled by `fraction` (e.g. 0.5 for
/// the "1/2 DRAM BW" configuration). Latency equals DRAM latency.
DeviceModel nvm_bw_fraction(const DeviceModel& dram_model, double fraction,
                            std::uint64_t capacity);

/// NVM emulated as DRAM with latency scaled by `multiple` (e.g. 4.0 for
/// the "4x DRAM LAT" configuration). Bandwidth equals DRAM bandwidth.
DeviceModel nvm_lat_multiple(const DeviceModel& dram_model, double multiple,
                             std::uint64_t capacity);

/// All named presets, for the device-characteristics table bench.
std::vector<DeviceModel> all_presets();

}  // namespace devices
}  // namespace tahoe::memsim
