#include "memsim/machine.hpp"

#include "common/assert.hpp"
#include "common/units.hpp"

namespace tahoe::memsim {

MemTraffic Machine::filtered(const ObjectTraffic& t,
                             std::uint64_t task_total_footprint) const {
  return llc.filter(t, task_total_footprint);
}

void Machine::task_flow(
    double compute_seconds,
    const std::vector<std::pair<ObjectTraffic, DeviceId>>& accesses,
    std::uint64_t tag, FlowSpec& spec) const {
  TAHOE_REQUIRE(compute_seconds >= 0.0, "negative compute time");
  std::uint64_t total_footprint = 0;
  for (const auto& [traffic, dev] : accesses) {
    (void)dev;
    total_footprint += traffic.footprint;
  }
  spec.tag = tag;
  spec.serial_seconds = compute_seconds;
  spec.device_seconds.assign(devices.size(), 0.0);
  for (const auto& [traffic, dev] : accesses) {
    TAHOE_REQUIRE(dev < devices.size(), "device id out of range");
    const MemTraffic mm = filtered(traffic, total_footprint);
    spec.device_seconds[dev] += devices[dev].channel_seconds(mm);
    spec.serial_seconds += devices[dev].latency_seconds(mm, mlp);
  }
}

double Machine::copy_bw_for(TierId src, TierId dst) const noexcept {
  for (const CopyPathLimit& p : copy_paths) {
    if (p.src == src && p.dst == dst) return p.bw;
  }
  return copy_engine_bw;
}

void Machine::copy_flow(std::uint64_t bytes, DeviceId src, DeviceId dst,
                        std::uint64_t tag, FlowSpec& spec) const {
  TAHOE_REQUIRE(src < devices.size() && dst < devices.size(),
                "copy device out of range");
  TAHOE_REQUIRE(src != dst, "copy within one device");
  const double b = static_cast<double>(bytes);
  spec.tag = tag;
  spec.device_seconds.assign(devices.size(), 0.0);
  spec.device_seconds[src] = b / devices[src].read_bw;
  spec.device_seconds[dst] = b / devices[dst].write_bw;
  const double copy_bw = copy_bw_for(src, dst);
  spec.serial_seconds = copy_bw > 0.0 ? b / copy_bw : 0.0;
}

namespace machines {

Machine platform_a(DeviceModel nvm, std::uint64_t dram_capacity) {
  Machine m;
  m.name = "platform-a";
  m.cpu_hz = 2.4e9;
  m.workers = 16;
  m.mlp = 64.0;
  m.llc = CacheModel{20 * kMiB};
  DeviceModel dram_dev = devices::dram(dram_capacity);
  m.devices = {dram_dev, std::move(nvm)};
  // memcpy between tiers is staged through the cores; cap one stream at
  // a typical single-thread copy rate.
  m.copy_engine_bw = gbps(6.0);
  return m;
}

Machine optane_platform(std::uint64_t dram_capacity) {
  Machine m;
  m.name = "optane-pmm";
  m.cpu_hz = 2.4e9;
  m.workers = 48;
  m.mlp = 64.0;
  m.llc = CacheModel{static_cast<std::uint64_t>(35.75 * static_cast<double>(kMiB))};
  m.devices = {devices::dram(dram_capacity),
               devices::optane_pm(1536 * kGiB)};
  m.copy_engine_bw = gbps(6.0);
  return m;
}

Machine cxl_platform(std::uint64_t hbm_capacity, std::uint64_t dram_capacity,
                     std::uint64_t cxl_capacity, std::uint64_t nvm_capacity) {
  if (nvm_capacity == 0) nvm_capacity = 1536 * kGiB;
  Machine m;
  m.name = "cxl-platform";
  m.cpu_hz = 2.4e9;
  m.workers = 32;
  m.mlp = 64.0;
  m.llc = CacheModel{32 * kMiB};
  m.devices = {devices::hbm(hbm_capacity), devices::dram(dram_capacity),
               devices::cxl_dram(cxl_capacity),
               devices::optane_pm(nvm_capacity)};
  m.copy_engine_bw = gbps(6.0);
  // The on-package HBM<->DRAM path has a dedicated DMA engine; copies that
  // cross the CXL link are throttled below the core-staged memcpy rate.
  m.copy_paths = {{0, 1, gbps(12.0)}, {1, 0, gbps(12.0)},
                  {1, 2, gbps(4.0)},  {2, 1, gbps(4.0)},
                  {0, 2, gbps(4.0)},  {2, 0, gbps(4.0)}};
  return m;
}

}  // namespace machines
}  // namespace tahoe::memsim
