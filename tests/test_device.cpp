// Device model timing math and presets.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/units.hpp"
#include "memsim/device.hpp"

namespace tahoe::memsim {
namespace {

/// Lower-bound duration for `t` running alone on the device.
double uncontended_seconds(const DeviceModel& d, const MemTraffic& t,
                           double mlp) {
  return std::max(d.channel_seconds(t), d.latency_seconds(t, mlp));
}

TEST(Device, ChannelSecondsUsesAsymmetricBandwidth) {
  DeviceModel d = devices::optane_pm(kGiB);
  MemTraffic t;
  t.read_lines = 1'000'000;
  t.write_lines = 1'000'000;
  const double bytes = 1'000'000.0 * 64.0;
  EXPECT_NEAR(d.channel_seconds(t), bytes / d.read_bw + bytes / d.write_bw,
              1e-12);
}

TEST(Device, LatencySecondsScalesWithDependenceFraction) {
  DeviceModel d = devices::dram(kGiB);
  MemTraffic t;
  t.read_lines = 1000;
  t.dep_frac = 1.0;
  const double serial = d.latency_seconds(t, 10.0);
  t.dep_frac = 0.0;
  const double overlapped = d.latency_seconds(t, 10.0);
  EXPECT_NEAR(serial / overlapped, 10.0, 1e-9);
}

TEST(Device, UncontendedIsMaxOfChannelAndLatency) {
  DeviceModel d = devices::pcram(kGiB);
  MemTraffic bw_bound;
  bw_bound.read_lines = 10'000'000;
  bw_bound.dep_frac = 0.0;
  EXPECT_DOUBLE_EQ(uncontended_seconds(d, bw_bound, 10.0),
                   d.channel_seconds(bw_bound));
  MemTraffic lat_bound;
  lat_bound.read_lines = 1000;
  lat_bound.dep_frac = 1.0;
  EXPECT_DOUBLE_EQ(uncontended_seconds(d, lat_bound, 10.0),
                   d.latency_seconds(lat_bound, 10.0));
}

TEST(Device, BwFractionPreservesLatency) {
  const DeviceModel dram = devices::dram(kGiB);
  const DeviceModel nvm = devices::nvm_bw_fraction(dram, 0.25, 4 * kGiB);
  EXPECT_DOUBLE_EQ(nvm.read_lat_s, dram.read_lat_s);
  EXPECT_DOUBLE_EQ(nvm.read_bw, dram.read_bw * 0.25);
  EXPECT_DOUBLE_EQ(nvm.write_bw, dram.write_bw * 0.25);
  EXPECT_EQ(nvm.capacity, 4 * kGiB);
}

TEST(Device, LatMultiplePreservesBandwidth) {
  const DeviceModel dram = devices::dram(kGiB);
  const DeviceModel nvm = devices::nvm_lat_multiple(dram, 8.0, 4 * kGiB);
  EXPECT_DOUBLE_EQ(nvm.read_bw, dram.read_bw);
  EXPECT_DOUBLE_EQ(nvm.read_lat_s, dram.read_lat_s * 8.0);
  EXPECT_DOUBLE_EQ(nvm.write_lat_s, dram.write_lat_s * 8.0);
}

TEST(Device, PresetsMatchSurveyTable) {
  // Spot-check the NVMDB/Optane characteristics table.
  const auto presets = devices::all_presets();
  ASSERT_EQ(presets.size(), 7u);
  EXPECT_EQ(presets[0].name, "DRAM");
  EXPECT_NEAR(presets[0].read_lat_s, ns(80), 1e-15);
  EXPECT_EQ(presets[4].name, "Optane-PM");
  EXPECT_NEAR(presets[4].read_bw, mbps(3'900), 1.0);
  EXPECT_NEAR(presets[4].write_bw, mbps(1'300), 1.0);
  // Presets 1..4 are the NVM technologies: slower than DRAM on both axes.
  for (std::size_t i = 1; i <= 4; ++i) {
    EXPECT_GT(presets[i].read_lat_s, presets[0].read_lat_s) << presets[i].name;
    EXPECT_LT(presets[i].read_bw, presets[0].read_bw) << presets[i].name;
  }
  // N-tier additions: HBM out-bandwidths DRAM; CXL-attached DRAM sits
  // between local DRAM and Optane on both latency and bandwidth.
  EXPECT_EQ(presets[5].name, "HBM");
  EXPECT_GT(presets[5].read_bw, presets[0].read_bw);
  EXPECT_EQ(presets[6].name, "CXL-DRAM");
  EXPECT_GT(presets[6].read_lat_s, presets[0].read_lat_s);
  EXPECT_LT(presets[6].read_bw, presets[0].read_bw);
  EXPECT_GT(presets[6].read_bw, presets[4].read_bw);
}

TEST(Device, InvalidParametersThrow) {
  const DeviceModel dram = devices::dram(kGiB);
  EXPECT_THROW(devices::nvm_bw_fraction(dram, 0.0, kGiB), ContractError);
  EXPECT_THROW(devices::nvm_bw_fraction(dram, 1.5, kGiB), ContractError);
  EXPECT_THROW(devices::nvm_lat_multiple(dram, 0.5, kGiB), ContractError);
}

TEST(MemTraffic, AccumulationWeighsDependence) {
  MemTraffic a;
  a.read_lines = 100;
  a.dep_frac = 1.0;
  MemTraffic b;
  b.read_lines = 300;
  b.dep_frac = 0.0;
  a += b;
  EXPECT_EQ(a.read_lines, 400u);
  EXPECT_NEAR(a.dep_frac, 0.25, 1e-12);
}

}  // namespace
}  // namespace tahoe::memsim
