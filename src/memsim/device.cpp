#include "memsim/device.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace tahoe::memsim {

double DeviceModel::channel_seconds(const MemTraffic& t) const noexcept {
  const double read_bytes =
      static_cast<double>(t.read_lines) * static_cast<double>(kCacheLine);
  const double write_bytes =
      static_cast<double>(t.write_lines) * static_cast<double>(kCacheLine);
  return read_bytes / read_bw + write_bytes / write_bw;
}

double DeviceModel::latency_seconds(const MemTraffic& t,
                                    double mlp) const noexcept {
  const double chain = static_cast<double>(t.read_lines) * read_lat_s +
                       static_cast<double>(t.write_lines) * write_lat_s;
  const double serial = t.dep_frac * chain;
  const double overlapped = (1.0 - t.dep_frac) * chain / std::max(mlp, 1.0);
  return serial + overlapped;
}

namespace devices {

// Bandwidths follow the NVM-characteristics survey table (NVMDB + Optane
// measurements). Latencies are *end-to-end load-to-use* values: the
// survey's device access times (DRAM 10ns, STT-RAM 60/80ns, PCRAM
// 100/500ns, ReRAM 500/5000ns) plus ~70ns of controller/queueing overhead
// that every access pays on a real platform — the quantity a dependent
// access chain actually serializes on. Optane numbers are measured
// end-to-end already.

DeviceModel dram(std::uint64_t capacity) {
  return DeviceModel{"DRAM", ns(80), ns(80), mbps(10'000), mbps(9'000),
                     capacity};
}

DeviceModel stt_ram(std::uint64_t capacity) {
  return DeviceModel{"STT-RAM", ns(130), ns(150), mbps(800), mbps(600),
                     capacity};
}

DeviceModel pcram(std::uint64_t capacity) {
  return DeviceModel{"PCRAM", ns(170), ns(570), mbps(500), mbps(300),
                     capacity};
}

DeviceModel reram(std::uint64_t capacity) {
  return DeviceModel{"ReRAM", ns(570), ns(5'070), mbps(60), mbps(4),
                     capacity};
}

DeviceModel optane_pm(std::uint64_t capacity) {
  return DeviceModel{"Optane-PM", ns(250), ns(150), mbps(3'900), mbps(1'300),
                     capacity};
}

DeviceModel hbm(std::uint64_t capacity) {
  return DeviceModel{"HBM", ns(110), ns(110), mbps(30'000), mbps(27'000),
                     capacity};
}

DeviceModel cxl_dram(std::uint64_t capacity) {
  return DeviceModel{"CXL-DRAM", ns(180), ns(180), mbps(8'000), mbps(7'200),
                     capacity};
}

DeviceModel nvm_bw_fraction(const DeviceModel& dram_model, double fraction,
                            std::uint64_t capacity) {
  TAHOE_REQUIRE(fraction > 0.0 && fraction <= 1.0,
                "bandwidth fraction must be in (0,1]");
  DeviceModel d = dram_model;
  d.name = "NVM(bw*" + std::to_string(fraction) + ")";
  d.read_bw *= fraction;
  d.write_bw *= fraction;
  d.capacity = capacity;
  return d;
}

DeviceModel nvm_lat_multiple(const DeviceModel& dram_model, double multiple,
                             std::uint64_t capacity) {
  TAHOE_REQUIRE(multiple >= 1.0, "latency multiple must be >= 1");
  DeviceModel d = dram_model;
  d.name = "NVM(lat*" + std::to_string(multiple) + ")";
  d.read_lat_s *= multiple;
  d.write_lat_s *= multiple;
  d.capacity = capacity;
  return d;
}

std::vector<DeviceModel> all_presets() {
  const std::uint64_t cap = 16 * kGiB;
  return {dram(cap),  stt_ram(cap), pcram(cap),   reram(cap),
          optane_pm(cap), hbm(cap), cxl_dram(cap)};
}

}  // namespace devices
}  // namespace tahoe::memsim
