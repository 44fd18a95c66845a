#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/initial_placement.hpp"

namespace tahoe::core {
namespace {

/// Two-tier machine whose DRAM tier holds `dram_capacity` bytes.
memsim::Machine two_tier(std::uint64_t dram_capacity) {
  return memsim::machines::platform_a(memsim::devices::optane_pm(16 * kGiB),
                                      dram_capacity);
}

TEST(InitialPlacement, PicksLargestEstimatesWithinCapacity) {
  std::vector<ObjectInfo> objects{
      ObjectInfo{1, "hot", {64 * kMiB}, 1e9},
      ObjectInfo{2, "warm", {64 * kMiB}, 1e6},
      ObjectInfo{3, "cold", {64 * kMiB}, 1e3},
  };
  const auto chosen = choose_initial_tiers(objects, two_tier(128 * kMiB));
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0].first.object, 1u);
  EXPECT_EQ(chosen[1].first.object, 2u);
  for (const auto& [u, t] : chosen) EXPECT_EQ(t, memsim::kDram);
}

TEST(InitialPlacement, SkipsStaticallyUnknownObjects) {
  std::vector<ObjectInfo> objects{
      ObjectInfo{1, "unknown", {16 * kMiB}, 0.0},
      ObjectInfo{2, "known", {16 * kMiB}, 10.0},
  };
  const auto chosen = choose_initial_tiers(objects, two_tier(64 * kMiB));
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].first.object, 2u);
  EXPECT_EQ(chosen[0].second, memsim::kDram);
}

TEST(InitialPlacement, ChunkedObjectsPlacePerChunk) {
  std::vector<ObjectInfo> objects{
      ObjectInfo{1, "chunked", {64 * kMiB, 64 * kMiB, 64 * kMiB}, 3e9},
  };
  // Only two chunks fit.
  const auto chosen = choose_initial_tiers(objects, two_tier(128 * kMiB));
  EXPECT_EQ(chosen.size(), 2u);
  for (const auto& [u, t] : chosen) {
    EXPECT_EQ(u.object, 1u);
    EXPECT_EQ(t, memsim::kDram);
  }
}

TEST(InitialPlacement, EmptyWhenNothingFits) {
  std::vector<ObjectInfo> objects{
      ObjectInfo{1, "big", {1 * kGiB}, 1e9},
  };
  EXPECT_TRUE(choose_initial_tiers(objects, two_tier(64 * kMiB)).empty());
}

TEST(InitialPlacement, NoObjectsNoChoice) {
  EXPECT_TRUE(choose_initial_tiers({}, two_tier(64 * kMiB)).empty());
}

}  // namespace
}  // namespace tahoe::core
