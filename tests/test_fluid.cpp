// Fluid processor-sharing simulator: timing semantics the whole
// reproduction rests on.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include "memsim/fluid.hpp"

namespace tahoe::memsim {
namespace {

FlowSpec flow(double serial, std::vector<double> dev, std::uint64_t tag = 0) {
  FlowSpec s;
  s.serial_seconds = serial;
  s.device_seconds = std::move(dev);
  s.tag = tag;
  return s;
}

TEST(Fluid, SingleFlowTakesItsDemand) {
  FluidSim sim(2);
  sim.start_flow(flow(0.0, {1.0, 0.0}));
  const auto c = sim.step();
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->time, 1.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Fluid, SerialFloorDominatesWhenLarger) {
  FluidSim sim(1);
  sim.start_flow(flow(5.0, {1.0}));
  const auto c = sim.step();
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->time, 5.0);
}

TEST(Fluid, TwoFlowsShareOneDeviceEqually) {
  FluidSim sim(1);
  sim.start_flow(flow(0.0, {1.0}, 1));
  sim.start_flow(flow(0.0, {1.0}, 2));
  const auto c1 = sim.step();
  const auto c2 = sim.step();
  ASSERT_TRUE(c1 && c2);
  // Each needs 1 channel-second at half rate: both finish at t=2.
  EXPECT_DOUBLE_EQ(c1->time, 2.0);
  EXPECT_DOUBLE_EQ(c2->time, 2.0);
}

TEST(Fluid, UnequalDemandsReleaseCapacityEarly) {
  FluidSim sim(1);
  sim.start_flow(flow(0.0, {1.0}, 1));
  sim.start_flow(flow(0.0, {3.0}, 2));
  const auto c1 = sim.step();
  const auto c2 = sim.step();
  ASSERT_TRUE(c1 && c2);
  // Shared until the small flow drains: it needs 1 at rate 1/2 -> t=2.
  EXPECT_DOUBLE_EQ(c1->time, 2.0);
  EXPECT_EQ(c1->tag, 1u);
  // Large flow served 1 by t=2, then runs alone: 2 more -> t=4.
  EXPECT_DOUBLE_EQ(c2->time, 4.0);
}

TEST(Fluid, FlowsOnDifferentDevicesDoNotInterfere) {
  FluidSim sim(2);
  sim.start_flow(flow(0.0, {1.0, 0.0}, 1));
  sim.start_flow(flow(0.0, {0.0, 1.0}, 2));
  const auto c1 = sim.step();
  const auto c2 = sim.step();
  ASSERT_TRUE(c1 && c2);
  EXPECT_DOUBLE_EQ(c1->time, 1.0);
  EXPECT_DOUBLE_EQ(c2->time, 1.0);
}

TEST(Fluid, LateArrivalSharesOnlyFromItsStart) {
  FluidSim sim(1);
  sim.start_flow(flow(0.0, {2.0}, 1));
  // A serial-only flow lets 1 second pass (flow 1 drains 1 of its 2
  // channel-seconds).
  sim.start_flow(flow(1.0, {}, 0));
  const auto timer = sim.step();
  ASSERT_TRUE(timer.has_value());
  EXPECT_EQ(timer->tag, 0u);
  EXPECT_DOUBLE_EQ(timer->time, 1.0);
  sim.start_flow(flow(0.0, {2.0}, 2));
  const auto c1 = sim.step();
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->tag, 1u);
  // Flow 1 has 1 left at rate 1/2 -> finishes at t=3.
  EXPECT_DOUBLE_EQ(c1->time, 3.0);
  const auto c2 = sim.step();
  ASSERT_TRUE(c2.has_value());
  // Flow 2: served 1 by t=3, 1 left alone -> t=4.
  EXPECT_DOUBLE_EQ(c2->time, 4.0);
}

TEST(Fluid, ZeroDemandFlowCompletesInstantly) {
  FluidSim sim(1);
  sim.start_flow(flow(0.0, {0.0}));
  const auto c = sim.step();
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->time, 0.0);
}

TEST(Fluid, SerialAndChannelOverlap) {
  // Serial work and channel work drain concurrently: total = max.
  FluidSim sim(1);
  sim.start_flow(flow(2.0, {1.0}));
  const auto c = sim.step();
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->time, 2.0);
}

TEST(Fluid, BusySecondsAccounted) {
  FluidSim sim(2);
  sim.start_flow(flow(0.0, {1.5, 0.25}));
  (void)sim.step();
  EXPECT_DOUBLE_EQ(sim.device_busy_seconds(0), 1.5);
  EXPECT_DOUBLE_EQ(sim.device_busy_seconds(1), 0.25);
}

TEST(Fluid, StepWithNoFlowsReturnsNullopt) {
  FluidSim sim(1);
  EXPECT_FALSE(sim.step().has_value());
}

TEST(Fluid, ManyFlowsDeterministicOrder) {
  FluidSim sim(1);
  for (std::uint64_t i = 0; i < 8; ++i) {
    sim.start_flow(flow(0.0, {1.0}, i));
  }
  // All identical: all complete at t=8, delivered in flow-id order.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto c = sim.step();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->tag, i);
    EXPECT_DOUBLE_EQ(c->time, 8.0);
  }
}

TEST(Fluid, RejectsNegativeDemand) {
  FluidSim sim(1);
  EXPECT_THROW(sim.start_flow(flow(-1.0, {1.0})), ContractError);
  EXPECT_THROW(sim.start_flow(flow(0.0, {-2.0})), ContractError);
}

TEST(Fluid, ThroughputConservation) {
  // Property: regardless of arrival pattern, total busy time equals total
  // demand, and makespan >= total demand (single device).
  FluidSim sim(1);
  double total = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double d = 0.1 * (i % 5 + 1);
    total += d;
    sim.start_flow(flow(0.0, {d}));
    if (i % 3 == 0) (void)sim.step();
  }
  while (sim.step().has_value()) {
  }
  EXPECT_NEAR(sim.device_busy_seconds(0), total, 1e-9);
  EXPECT_GE(sim.now() + 1e-12, total);
}

}  // namespace
}  // namespace tahoe::memsim
