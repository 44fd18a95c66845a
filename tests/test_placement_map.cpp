// PlacementMap: the sorted (unit, tier) vector behind every simulated
// residency. Its contract is the ordered map it replaced: unknown units
// read NVM, a set overwrites, entries iterate in ascending unit order, and
// equality ignores insertion order.
#include "hms/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "task/task.hpp"

namespace tahoe::hms {
namespace {

using Unit = PlacementMap::Unit;

TEST(PlacementMap, UnknownUnitReadsNvm) {
  PlacementMap p;
  EXPECT_EQ(p.device_of(7), memsim::kNvm);
  EXPECT_EQ(p.device_of(7, 3), memsim::kNvm);
  EXPECT_FALSE(p.find(Unit{7, 3}).has_value());
  p.set(7, 3, memsim::kDram);
  EXPECT_EQ(p.device_of(7, 3), memsim::kDram);
  EXPECT_EQ(p.device_of(7, 2), memsim::kNvm);
  EXPECT_EQ(p.device_of(7), memsim::kNvm);
  EXPECT_EQ(p.device_of(8, 3), memsim::kNvm);
  EXPECT_EQ(p.find(Unit{7, 3}), memsim::kDram);
}

TEST(PlacementMap, SetOverwritesAnExistingEntry) {
  PlacementMap p;
  p.set(1, 0, memsim::kDram);
  p.set(1, 0, 3);
  ASSERT_EQ(p.entries().size(), 1u);
  EXPECT_EQ(p.device_of(1, 0), 3u);
  p.set(1, 0, memsim::kNvm);
  ASSERT_EQ(p.entries().size(), 1u);
  EXPECT_EQ(p.find(Unit{1, 0}), memsim::kNvm);
}

TEST(PlacementMap, EntriesAscendAndEqualityIgnoresInsertionOrder) {
  const std::vector<Unit> units{{2, 1},          {0, task::kAllChunks},
                                {2, 0},          {1, 1'000'000'000},
                                {0, 5},          {1, task::kAllChunks - 1},
                                {0, 0}};
  PlacementMap forward;
  PlacementMap backward;
  for (std::size_t i = 0; i < units.size(); ++i) {
    forward.set(units[i].first, units[i].second,
                static_cast<memsim::DeviceId>(i % 3));
  }
  for (std::size_t i = units.size(); i-- > 0;) {
    backward.set(units[i].first, units[i].second,
                 static_cast<memsim::DeviceId>(i % 3));
  }
  std::vector<Unit> sorted = units;
  std::sort(sorted.begin(), sorted.end());
  std::vector<Unit> listed;
  for (const auto& [unit, dev] : forward.entries()) listed.push_back(unit);
  EXPECT_EQ(listed, sorted);
  EXPECT_EQ(forward, backward);
  backward.set(0, 5, 2);  // units[4] holds 4 % 3 == 1
  EXPECT_NE(forward, backward);
}

TEST(PlacementMap, BytesOnSumsTheUnitsOnThatTier) {
  PlacementMap p;
  p.set(1, 0, memsim::kDram);
  p.set(1, 1, memsim::kNvm);
  p.set(2, 0, memsim::kDram);
  p.set(3, 4, 2);
  const auto size_of = [](ObjectId id, std::size_t chunk) -> std::uint64_t {
    return 1000 * id + chunk;
  };
  EXPECT_EQ(p.bytes_on(memsim::kDram, size_of), 1000u + 2000u);
  EXPECT_EQ(p.bytes_on(memsim::kNvm, size_of), 1001u);
  EXPECT_EQ(p.bytes_on(2, size_of), 3004u);
  EXPECT_EQ(p.bytes_on(3, size_of), 0u);
}

TEST(PlacementMap, MatchesAnOrderedMapUnderRandomSets) {
  // Differential check against the std::map the vector replaced, over
  // random sets and lookups mixing dense, sparse and huge chunk indices.
  Rng rng(0x91ace);
  const std::vector<std::size_t> chunks{0, 1, 2, 7, 1'000'000'000,
                                        task::kAllChunks - 1,
                                        task::kAllChunks};
  for (int trial = 0; trial < 50; ++trial) {
    PlacementMap p;
    std::map<Unit, memsim::DeviceId> reference;
    for (int op = 0; op < 200; ++op) {
      const Unit unit{static_cast<ObjectId>(rng.next_below(6)),
                      chunks[rng.next_below(chunks.size())]};
      const auto dev = static_cast<memsim::DeviceId>(rng.next_below(4));
      p.set(unit.first, unit.second, dev);
      reference[unit] = dev;
      const Unit probe{static_cast<ObjectId>(rng.next_below(6)),
                       chunks[rng.next_below(chunks.size())]};
      const auto it = reference.find(probe);
      ASSERT_EQ(p.device_of(probe.first, probe.second),
                it == reference.end() ? memsim::kNvm : it->second);
    }
    ASSERT_TRUE(std::equal(
        p.entries().begin(), p.entries().end(), reference.begin(),
        reference.end(), [](const auto& a, const auto& b) {
          return a.first == b.first && a.second == b.second;
        }))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace tahoe::hms
