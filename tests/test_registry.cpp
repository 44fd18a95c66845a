// Object registry: allocation, typed handles, migration with pointer
// redirection and alias rewriting.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/fault.hpp"
#include "common/units.hpp"
#include "hms/registry.hpp"

namespace tahoe::hms {
namespace {

std::vector<std::uint64_t> caps() { return {1 * kMiB, 64 * kMiB}; }

TEST(Registry, CreateAndTypedHandle) {
  ObjectRegistry reg(caps());
  Handle<double> h = make_array<double>(reg, "v", 1000, memsim::kNvm);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.size(), 1000u);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = static_cast<double>(i);
  EXPECT_DOUBLE_EQ(h[999], 999.0);
  EXPECT_EQ(reg.get(h.id()).device(), memsim::kNvm);
  EXPECT_EQ(reg.num_objects(), 1u);
}

TEST(Registry, MigrationPreservesPayloadAndRedirects) {
  ObjectRegistry reg(caps());
  Handle<int> h = make_array<int>(reg, "v", 4096, memsim::kNvm);
  std::iota(h.data(), h.data() + h.size(), 17);
  const int* before = h.data();
  ASSERT_TRUE(reg.migrate(h.id(), memsim::kDram));
  const int* after = h.data();
  EXPECT_NE(before, after);
  EXPECT_EQ(reg.get(h.id()).device(), memsim::kDram);
  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(h[i], static_cast<int>(i) + 17);
  }
  EXPECT_EQ(reg.stats().migrations, 1u);
  EXPECT_EQ(reg.stats().bytes_moved, 4096 * sizeof(int));
  EXPECT_EQ(reg.stats().to_tier, (std::vector<std::uint64_t>{1, 0}));
}

TEST(Registry, MigrationToSameTierIsNoop) {
  ObjectRegistry reg(caps());
  const ObjectId id = reg.create("v", 4096, memsim::kNvm);
  EXPECT_TRUE(reg.migrate(id, memsim::kNvm));
  EXPECT_EQ(reg.stats().migrations, 0u);
}

TEST(Registry, MigrationFailsWhenTierFull) {
  ObjectRegistry reg(caps());
  const ObjectId big = reg.create("big", 900 * kKiB, memsim::kNvm);
  const ObjectId blocker = reg.create("blocker", 512 * kKiB, memsim::kDram);
  (void)blocker;
  EXPECT_FALSE(reg.migrate(big, memsim::kDram));
  EXPECT_EQ(reg.get(big).device(), memsim::kNvm);  // untouched
  EXPECT_EQ(reg.stats().failed_no_space, 1u);
}

TEST(Registry, AliasSlotsRewrittenOnMigration) {
  ObjectRegistry reg(caps());
  const ObjectId id = reg.create("v", 4096, memsim::kNvm);
  void* alias1 = nullptr;
  void* alias2 = nullptr;
  reg.register_alias(id, &alias1);
  reg.register_alias(id, &alias2);
  EXPECT_EQ(alias1, reg.chunk_ptr(id));
  ASSERT_TRUE(reg.migrate(id, memsim::kDram));
  EXPECT_EQ(alias1, reg.chunk_ptr(id));
  EXPECT_EQ(alias2, reg.chunk_ptr(id));
}

TEST(Registry, ChunkedObjectsMigratePerChunk) {
  ObjectRegistry reg(caps());
  const ObjectId id = reg.create("c", 256 * kKiB, memsim::kNvm, 4);
  EXPECT_EQ(reg.get(id).num_chunks(), 4u);
  EXPECT_TRUE(reg.get(id).chunked());
  ASSERT_TRUE(reg.migrate_chunk(id, 2, memsim::kDram));
  EXPECT_EQ(reg.get(id).chunk(2).device, memsim::kDram);
  EXPECT_EQ(reg.get(id).chunk(1).device, memsim::kNvm);
  EXPECT_EQ(reg.get(id).bytes_on(memsim::kDram), 64 * kKiB);
  EXPECT_EQ(reg.get(id).bytes_on(memsim::kNvm), 192 * kKiB);
  // device() is only defined for unchunked objects.
  EXPECT_THROW(reg.get(id).device(), ContractError);
  // Aliases are unsupported for chunked objects.
  void* slot = nullptr;
  EXPECT_THROW(reg.register_alias(id, &slot), ContractError);
}

TEST(Registry, ChunkSizesCoverObjectExactly) {
  ObjectRegistry reg(caps());
  const ObjectId id = reg.create("c", 1000 * 64, memsim::kNvm, 7);
  std::uint64_t total = 0;
  for (const Chunk& c : reg.get(id).chunks()) total += c.bytes;
  EXPECT_EQ(total, 1000u * 64u);
}

TEST(Registry, DestroyReleasesSpace) {
  ObjectRegistry reg(caps());
  const ObjectId id = reg.create("v", 512 * kKiB, memsim::kDram);
  EXPECT_EQ(reg.resident_bytes(memsim::kDram), 512 * kKiB);
  reg.destroy(id);
  EXPECT_EQ(reg.resident_bytes(memsim::kDram), 0u);
  EXPECT_EQ(reg.num_objects(), 0u);
  EXPECT_THROW(reg.get(id), ContractError);
}

TEST(Registry, VirtualBackingSkipsPayload) {
  ObjectRegistry reg({1 * kGiB, 16 * kGiB}, Backing::Virtual);
  const ObjectId id = reg.create("huge", 8 * kGiB, memsim::kNvm, 8);
  EXPECT_EQ(reg.get(id).bytes, 8 * kGiB);
  ASSERT_TRUE(reg.migrate_chunk(id, 0, memsim::kDram));  // no real memcpy
  EXPECT_EQ(reg.get(id).chunk(0).device, memsim::kDram);
  EXPECT_EQ(reg.stats().bytes_moved, 1 * kGiB);
}

TEST(Registry, LiveObjectsEnumeration) {
  ObjectRegistry reg(caps());
  const ObjectId a = reg.create("a", 64, memsim::kNvm);
  const ObjectId b = reg.create("b", 64, memsim::kNvm);
  const ObjectId c = reg.create("c", 64, memsim::kNvm);
  reg.destroy(b);
  const auto live = reg.live_objects();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], a);
  EXPECT_EQ(live[1], c);
}

TEST(Registry, ContractViolations) {
  EXPECT_THROW(ObjectRegistry({1 * kMiB}), ContractError);  // one tier
  ObjectRegistry reg(caps());
  EXPECT_THROW(reg.create("v", 0, memsim::kNvm), ContractError);
  EXPECT_THROW(reg.create("v", 64, 9), ContractError);
  // Larger than every tier: even fallback cannot place it.
  EXPECT_THROW(reg.create("v", 128 * kMiB, memsim::kDram), ContractError);
}

TEST(Registry, CreateFallsBackToNvmWhenDramIsFull) {
  ObjectRegistry reg(caps());
  // 2 MiB cannot fit the 1 MiB DRAM tier; graceful degradation lands it
  // on NVM instead of aborting the application.
  const ObjectId id = reg.create("v", 2 * kMiB, memsim::kDram);
  EXPECT_EQ(reg.get(id).device(), memsim::kNvm);
  EXPECT_EQ(reg.stats().alloc_fallbacks, 1u);
}

// ---- N-tier hierarchies (three tiers: 1 MiB / 2 MiB / 64 MiB). ----

std::vector<std::uint64_t> caps3() { return {1 * kMiB, 2 * kMiB, 64 * kMiB}; }

TEST(RegistryNTier, AllocHopsTwoTiersWhenFastOnesAreTooSmall) {
  ObjectRegistry reg(caps3());
  EXPECT_EQ(reg.capacity_tier(), 2u);
  // 3 MiB fits neither the 1 MiB tier 0 nor the 2 MiB tier 1: the chunk
  // must hop two tiers down to the capacity tier in one create call.
  const ObjectId id = reg.create("big", 3 * kMiB, memsim::kDram);
  EXPECT_EQ(reg.get(id).device(), 2u);
  EXPECT_EQ(reg.stats().alloc_fallbacks, 1u);
}

TEST(RegistryNTier, ExhaustedFastTiersCascadeInOrder) {
  ObjectRegistry reg(caps3());
  const ObjectId a = reg.create("a", 900 * kKiB, 0);    // lands on tier 0
  const ObjectId b = reg.create("b", 1800 * kKiB, 0);   // tier 0 full -> 1
  const ObjectId c = reg.create("c", 1800 * kKiB, 0);   // 0 and 1 full -> 2
  EXPECT_EQ(reg.get(a).device(), 0u);
  EXPECT_EQ(reg.get(b).device(), 1u);
  EXPECT_EQ(reg.get(c).device(), 2u);
  EXPECT_EQ(reg.stats().alloc_fallbacks, 2u);
}

TEST(RegistryNTier, MidTierRequestDegradesDownOnly) {
  ObjectRegistry reg(caps3());
  // A tier-1 request that does not fit must degrade to tier 2; the default
  // chain also offers tier 0 but 3 MiB cannot fit there either.
  const ObjectId id = reg.create("mid", 3 * kMiB, 1);
  EXPECT_EQ(reg.get(id).device(), 2u);
  EXPECT_EQ(reg.stats().alloc_fallbacks, 1u);
}

TEST(RegistryNTier, FallbackOrderRestrictsTheChain) {
  ObjectRegistry reg(caps3());
  reg.set_fallback_order({2});  // never consider the middle tier
  const ObjectId id = reg.create("x", 1800 * kKiB, 0);  // too big for tier 0
  EXPECT_EQ(reg.get(id).device(), 2u);  // tier 1 would fit but is skipped
  reg.set_fallback_order({});           // restore default device order
  const ObjectId y = reg.create("y", 1800 * kKiB, 0);
  EXPECT_EQ(reg.get(y).device(), 1u);
}

TEST(RegistryNTier, FallbackOrderOutOfRangeThrows) {
  ObjectRegistry reg(caps3());
  EXPECT_THROW(reg.set_fallback_order({3}), ContractError);
}

TEST(RegistryNTier, ToTierStatsTrackEveryDestination) {
  ObjectRegistry reg(caps3());
  const ObjectId id = reg.create("v", 512 * kKiB, 2);
  ASSERT_TRUE(reg.migrate(id, 1));
  ASSERT_TRUE(reg.migrate(id, 0));
  ASSERT_TRUE(reg.migrate(id, 2));
  const MigrationStats& s = reg.stats();
  ASSERT_EQ(s.to_tier.size(), 3u);
  EXPECT_EQ(s.to_tier[0], 1u);
  EXPECT_EQ(s.to_tier[1], 1u);
  EXPECT_EQ(s.to_tier[2], 1u);
  EXPECT_EQ(s.migrations, 3u);
}

TEST(RegistryNTier, NoSpaceIsCountedEveryTimeButWarnedOnce) {
  ObjectRegistry reg(caps3());
  const ObjectId blocker = reg.create("blocker", 900 * kKiB, 0);
  (void)blocker;
  const ObjectId big = reg.create("big", 1800 * kKiB, 2);
  // Tier 0 cannot take it; every refusal counts, the log warns only once
  // per object (not asserted here — it must merely not crash or grow).
  EXPECT_EQ(reg.try_migrate_chunk(big, 0, 0), MigrateResult::kNoSpace);
  EXPECT_EQ(reg.try_migrate_chunk(big, 0, 0), MigrateResult::kNoSpace);
  EXPECT_EQ(reg.try_migrate_chunk(big, 0, 0), MigrateResult::kNoSpace);
  EXPECT_EQ(reg.stats().failed_no_space, 3u);
  EXPECT_EQ(reg.get(big).device(), 2u);
}

TEST(RegistryNTier, InjectedAllocFaultsExhaustEveryTierThenThrow) {
  fault::FaultConfig cfg;
  cfg.alloc_failure = 1.0;  // every attempt on every tier fails
  fault::global().configure(cfg);
  ObjectRegistry reg(caps3());
  EXPECT_THROW(reg.create("doomed", 64 * kKiB, 0), ContractError);
  fault::global().disarm();
  // With the injector disarmed the same allocation succeeds again.
  const ObjectId id = reg.create("fine", 64 * kKiB, 0);
  EXPECT_EQ(reg.get(id).device(), 0u);
}

}  // namespace
}  // namespace tahoe::hms
