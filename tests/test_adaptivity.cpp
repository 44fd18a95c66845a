#include <gtest/gtest.h>

#include "core/adaptivity.hpp"

#include "common/assert.hpp"

namespace tahoe::core {
namespace {

TEST(AdaptiveMonitor, StableWorkloadDoesNotTrigger) {
  AdaptiveMonitor mon;
  mon.set_baseline({1.0, 2.0, 3.0});
  EXPECT_FALSE(mon.deviates({1.0, 2.0, 3.0}));
  EXPECT_FALSE(mon.deviates({1.05, 2.05, 3.05}));  // < 10%
}

TEST(AdaptiveMonitor, GroupDeviationTriggers) {
  AdaptiveMonitor mon;
  mon.set_baseline({1.0, 2.0, 3.0});
  EXPECT_TRUE(mon.deviates({1.0, 2.5, 3.0}));  // group 1 off by 25%
}

TEST(AdaptiveMonitor, TotalDeviationTriggers) {
  AdaptiveMonitor mon;
  mon.set_baseline({1.0, 1.0, 1.0});
  EXPECT_TRUE(mon.deviates({1.08, 1.08, 1.2}));  // total off by ~12%
}

TEST(AdaptiveMonitor, TinyGroupsIgnored) {
  AdaptiveMonitor mon;
  // Group 0 carries <1% of the iteration: its noise must not trigger.
  mon.set_baseline({0.001, 10.0});
  EXPECT_FALSE(mon.deviates({0.002, 10.0}));
}

TEST(AdaptiveMonitor, ShapeChangeTriggers) {
  AdaptiveMonitor mon;
  mon.set_baseline({1.0, 2.0});
  EXPECT_TRUE(mon.deviates({1.0, 2.0, 0.5}));
}

TEST(AdaptiveMonitor, RequiresBaseline) {
  AdaptiveMonitor mon;
  EXPECT_FALSE(mon.has_baseline());
  EXPECT_THROW(mon.deviates({1.0}), ContractError);
  mon.set_baseline({1.0});
  EXPECT_TRUE(mon.has_baseline());
}

TEST(AdaptiveMonitor, ThresholdIsTenPercent) {
  // The paper's fixed bound: drift just inside 10 % either way is
  // tolerated, drift just outside it triggers.
  AdaptiveMonitor mon;
  mon.set_baseline({1.0});
  EXPECT_FALSE(mon.deviates({1.09}));
  EXPECT_FALSE(mon.deviates({0.91}));
  EXPECT_TRUE(mon.deviates({1.11}));
  EXPECT_TRUE(mon.deviates({0.89}));
}

}  // namespace
}  // namespace tahoe::core
