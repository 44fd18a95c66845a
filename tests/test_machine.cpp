// Machine model: traffic -> flow conversion.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "memsim/machine.hpp"

namespace tahoe::memsim {
namespace {

Machine test_machine() {
  return machines::platform_a(
      devices::nvm_bw_fraction(devices::dram(256 * kMiB), 0.5, 16 * kGiB),
      256 * kMiB);
}

FlowSpec task_flow(
    const Machine& m, double compute_seconds,
    const std::vector<std::pair<ObjectTraffic, DeviceId>>& accesses) {
  FlowSpec spec;
  m.task_flow(compute_seconds, accesses, 0, spec);
  return spec;
}

FlowSpec copy_flow(const Machine& m, std::uint64_t bytes, DeviceId src,
                   DeviceId dst) {
  FlowSpec spec;
  m.copy_flow(bytes, src, dst, 1, spec);
  return spec;
}

/// Duration of the task flow when running alone (no contention).
double uncontended_task_seconds(
    const Machine& m, double compute_seconds,
    const std::vector<std::pair<ObjectTraffic, DeviceId>>& accesses) {
  const FlowSpec spec = task_flow(m, compute_seconds, accesses);
  double channel = 0.0;
  for (double d : spec.device_seconds) channel = std::max(channel, d);
  return std::max(spec.serial_seconds, channel);
}

ObjectTraffic stream(std::uint64_t elems) {
  ObjectTraffic t;
  t.loads = elems;
  t.stores = elems;
  t.footprint = elems * 8;
  t.locality = 0.0;
  t.dep_frac = 0.0;
  return t;
}

TEST(Machine, TaskFlowChargesTheRightDevice) {
  const Machine m = test_machine();
  const FlowSpec on_dram = task_flow(m, 0.0, {{stream(1 << 20), kDram}});
  const FlowSpec on_nvm = task_flow(m, 0.0, {{stream(1 << 20), kNvm}});
  EXPECT_GT(on_dram.device_seconds[kDram], 0.0);
  EXPECT_DOUBLE_EQ(on_dram.device_seconds[kNvm], 0.0);
  EXPECT_GT(on_nvm.device_seconds[kNvm], 0.0);
  EXPECT_DOUBLE_EQ(on_nvm.device_seconds[kDram], 0.0);
  // Half-bandwidth NVM needs twice the channel time.
  EXPECT_NEAR(on_nvm.device_seconds[kNvm],
              2.0 * on_dram.device_seconds[kDram], 1e-12);
}

TEST(Machine, ComputeAddsToSerial) {
  const Machine m = test_machine();
  const FlowSpec f = task_flow(m, 0.25, {{stream(1024), kDram}});
  EXPECT_GE(f.serial_seconds, 0.25);
}

TEST(Machine, UncontendedSecondsIsRooflineMax) {
  const Machine m = test_machine();
  // Bandwidth-bound stream: duration == channel time.
  const double t_bw =
      uncontended_task_seconds(m, 0.0, {{stream(64 << 20), kNvm}});
  const FlowSpec f = task_flow(m, 0.0, {{stream(64 << 20), kNvm}});
  EXPECT_NEAR(t_bw, f.device_seconds[kNvm], t_bw * 1e-9);

  // Compute-bound task: duration == compute.
  const double t_cpu =
      uncontended_task_seconds(m, 10.0, {{stream(64), kNvm}});
  EXPECT_NEAR(t_cpu, 10.0, 1e-4);  // tiny latency-chain term rides along
}

TEST(Machine, LatencyBoundChainIsBandwidthInsensitive) {
  const Machine half_bw = test_machine();
  ObjectTraffic chase;
  chase.loads = 100'000;
  chase.footprint = 64 * chase.loads;
  chase.dep_frac = 1.0;
  chase.locality = 0.0;
  const double on_nvm =
      uncontended_task_seconds(half_bw, 0.0, {{chase, kNvm}});
  const double on_dram =
      uncontended_task_seconds(half_bw, 0.0, {{chase, kDram}});
  // Same latency on both tiers (bw-scaled NVM): no benefit from DRAM.
  EXPECT_NEAR(on_nvm, on_dram, on_dram * 0.01);

  const Machine lat4 = machines::platform_a(
      devices::nvm_lat_multiple(devices::dram(256 * kMiB), 4.0, 16 * kGiB),
      256 * kMiB);
  const double on_slow =
      uncontended_task_seconds(lat4, 0.0, {{chase, kNvm}});
  EXPECT_NEAR(on_slow, 4.0 * on_dram, on_slow * 0.01);
}

TEST(Machine, CopyFlowTouchesBothDevices) {
  const Machine m = test_machine();
  const FlowSpec c = copy_flow(m, 64 * kMiB, kNvm, kDram);
  EXPECT_GT(c.device_seconds[kNvm], 0.0);   // read source
  EXPECT_GT(c.device_seconds[kDram], 0.0);  // write destination
  EXPECT_GT(c.serial_seconds, 0.0);         // copy-engine ceiling
  EXPECT_THROW(copy_flow(m, 64, kDram, kDram), ContractError);
}

TEST(Machine, PlatformPresetsAreSane) {
  const Machine a = test_machine();
  EXPECT_EQ(a.devices.size(), 2u);
  EXPECT_GT(a.workers, 0u);
  EXPECT_GT(a.llc.llc_bytes, 0u);
  const Machine o = machines::optane_platform(256 * kMiB);
  EXPECT_EQ(o.tier(kNvm).name, "Optane-PM");
  EXPECT_GT(o.tier(kNvm).read_bw, o.tier(kNvm).write_bw);  // asymmetric
}

}  // namespace
}  // namespace tahoe::memsim
