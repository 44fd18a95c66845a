// Machine model: cores + LLC + heterogeneous memory devices + copy engine.
//
// The Machine is the single place that converts application-level traffic
// (ObjectTraffic per data object, plus the object's current placement) into
// FlowSpecs for the fluid simulator. It is also what the Tahoe performance
// models are calibrated against — the models never peek at these internals;
// they only see sampled counters and the device datasheet numbers.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "memsim/access.hpp"
#include "memsim/cache_model.hpp"
#include "memsim/device.hpp"
#include "memsim/fluid.hpp"

namespace tahoe::memsim {

/// Copy-engine ceiling for one specific ordered tier pair, overriding the
/// machine-wide `copy_engine_bw` (e.g. an on-package DMA engine between
/// HBM and DRAM that streams faster than the core-staged memcpy to NVM).
struct CopyPathLimit {
  TierId src = 0;
  TierId dst = 0;
  double bw = 0.0;  ///< bytes/s serial floor for one copy stream
};

struct Machine {
  std::string name;
  double cpu_hz = 2.4e9;
  std::uint32_t workers = 16;       ///< task-executor worker threads
  double mlp = 10.0;                ///< outstanding-miss parallelism per core
  CacheModel llc{};                 ///< shared last-level cache
  /// Ordered memory hierarchy, fastest tier first. Index is the TierId;
  /// the last tier is the capacity tier (the default home of every
  /// object). The canonical two-tier machines index it as kDram / kNvm.
  std::vector<DeviceModel> devices;
  double copy_engine_bw = 0.0;      ///< bytes/s ceiling for one copy stream
  /// Per-(src, dst) copy-engine overrides; empty means every pair uses
  /// `copy_engine_bw`.
  std::vector<CopyPathLimit> copy_paths;
  std::uint64_t sample_interval = 1000;
  std::uint64_t seed = 0x7a40e5c0ffee1234ULL;

  std::size_t num_tiers() const noexcept { return devices.size(); }

  /// Tier accessor: the DeviceModel of tier `t` (kDram / kNvm on the
  /// canonical two-tier machines).
  const DeviceModel& tier(TierId t) const { return devices.at(t); }

  /// Fastest (tier 0) and capacity (last) tiers of the hierarchy.
  TierId fastest_tier() const noexcept { return 0; }
  TierId capacity_tier() const noexcept {
    return static_cast<TierId>(devices.empty() ? 0 : devices.size() - 1);
  }

  /// Copy-engine ceiling for a (src, dst) copy: the per-pair override when
  /// one is registered, else the machine-wide copy_engine_bw.
  double copy_bw_for(TierId src, TierId dst) const noexcept;

  /// Main-memory traffic of one object access after the LLC filter.
  MemTraffic filtered(const ObjectTraffic& t,
                      std::uint64_t task_total_footprint) const;

  /// Write into `spec` the fluid-flow specification for a task:
  /// `compute_seconds` of pure compute plus the listed (traffic, device)
  /// pairs. Every field is overwritten; `spec`'s storage is reused.
  void task_flow(
      double compute_seconds,
      const std::vector<std::pair<ObjectTraffic, DeviceId>>& accesses,
      std::uint64_t tag, FlowSpec& spec) const;

  /// Write into `spec` the flow for an asynchronous migration copy of
  /// `bytes` from device `src` to device `dst`. The copy reads the source
  /// channel and writes the destination channel; its serial floor is set
  /// by the copy engine (one memcpy stream cannot exceed copy_engine_bw).
  void copy_flow(std::uint64_t bytes, DeviceId src, DeviceId dst,
                 std::uint64_t tag, FlowSpec& spec) const;
};

namespace machines {

/// "Platform A"-style cluster node: 16 workers at 2.4 GHz, 20 MiB LLC,
/// DRAM limited to `dram_capacity`, paired with the given NVM model.
Machine platform_a(DeviceModel nvm, std::uint64_t dram_capacity);

/// Optane-PMM style two-socket box: 48 workers, 35.75 MiB LLC (per socket
/// model collapsed to one), DRAM limited to `dram_capacity`, Optane PM NVM.
Machine optane_platform(std::uint64_t dram_capacity);

/// Four-tier heterogeneous node: HBM + DRAM + CXL-attached DRAM + Optane
/// NVM, ordered fastest-first. `hbm_capacity`/`dram_capacity`/
/// `cxl_capacity` bound the three constrained tiers; the NVM capacity
/// tier holds everything. On-package HBM<->DRAM copies get a faster
/// per-pair copy engine than the core-staged paths to CXL/NVM.
Machine cxl_platform(std::uint64_t hbm_capacity, std::uint64_t dram_capacity,
                     std::uint64_t cxl_capacity,
                     std::uint64_t nvm_capacity = 0);

}  // namespace machines
}  // namespace tahoe::memsim
