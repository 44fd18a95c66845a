// Analytic cache model properties, validated against the reference
// set-associative simulator.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include "cache_sim.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "memsim/cache_model.hpp"

namespace tahoe::memsim {
namespace {

ObjectTraffic make_traffic(std::uint64_t accesses, std::uint64_t footprint,
                           double locality, double store_frac = 0.0) {
  ObjectTraffic t;
  t.stores = static_cast<std::uint64_t>(
      static_cast<double>(accesses) * store_frac);
  t.loads = accesses - t.stores;
  t.footprint = footprint;
  t.locality = locality;
  return t;
}

TEST(CacheModel, CompulsoryFloor) {
  // Even a perfectly cache-resident object pays one fill per line.
  const CacheModel llc{32 * kMiB};
  const MemTraffic mm = llc.filter(make_traffic(1'000'000, 64 * kKiB, 1.0),
                                   64 * kKiB);
  EXPECT_GE(mm.read_lines, 64 * kKiB / kCacheLine);
}

TEST(CacheModel, FullyResidentHighLocalityFiltersReuse) {
  const CacheModel llc{32 * kMiB};
  const std::uint64_t fp = 1 * kMiB;
  const MemTraffic mm = llc.filter(make_traffic(10'000'000, fp, 1.0), fp);
  // Only compulsory misses survive.
  EXPECT_NEAR(static_cast<double>(mm.read_lines),
              static_cast<double>(fp / kCacheLine),
              static_cast<double>(fp / kCacheLine) * 0.01);
}

TEST(CacheModel, MonotoneInFootprint) {
  const CacheModel llc{8 * kMiB};
  double prev = 0.0;
  for (const std::uint64_t fp : {4 * kMiB, 16 * kMiB, 64 * kMiB, 256 * kMiB}) {
    const MemTraffic mm = llc.filter(make_traffic(50'000'000, fp, 0.8), fp);
    const auto lines = static_cast<double>(mm.lines());
    EXPECT_GE(lines, prev);
    prev = lines;
  }
}

TEST(CacheModel, MonotoneInLocality) {
  const CacheModel llc{32 * kMiB};
  const std::uint64_t fp = 16 * kMiB;
  double prev = 1e300;
  for (const double loc : {0.0, 0.3, 0.6, 0.9}) {
    const MemTraffic mm = llc.filter(make_traffic(50'000'000, fp, loc), fp);
    EXPECT_LE(static_cast<double>(mm.lines()), prev);
    prev = static_cast<double>(mm.lines());
  }
}

TEST(CacheModel, StoresProduceWritebacks) {
  const CacheModel llc{8 * kMiB};
  const std::uint64_t fp = 64 * kMiB;
  const MemTraffic ro = llc.filter(make_traffic(10'000'000, fp, 0.2, 0.0), fp);
  const MemTraffic rw = llc.filter(make_traffic(10'000'000, fp, 0.2, 0.5), fp);
  EXPECT_EQ(ro.write_lines, 0u);
  EXPECT_GT(rw.write_lines, 0u);
  // Half the misses are stores; write-backs mirror store misses.
  EXPECT_NEAR(static_cast<double>(rw.write_lines),
              static_cast<double>(rw.read_lines) / 2.0,
              static_cast<double>(rw.read_lines) * 0.02);
}

TEST(CacheModel, ProportionalSharePenalizesCrowdedTasks) {
  const CacheModel llc{8 * kMiB};
  const std::uint64_t fp = 8 * kMiB;
  const MemTraffic alone = llc.filter(make_traffic(10'000'000, fp, 0.9), fp);
  const MemTraffic crowded =
      llc.filter(make_traffic(10'000'000, fp, 0.9), 8 * fp);
  EXPECT_GT(crowded.lines(), alone.lines());
}

// ---- reference simulator ----

TEST(CacheSim, SequentialStreamMissesOncePerLine) {
  CacheSim sim(64 * kKiB, 8, 64);
  for (std::uint64_t addr = 0; addr < 32 * kKiB; addr += 8) {
    sim.access(addr, false);
  }
  EXPECT_EQ(sim.stats().misses(), 32 * kKiB / 64);
  EXPECT_EQ(sim.stats().hits, 32 * kKiB / 8 - 32 * kKiB / 64);
}

TEST(CacheSim, ResidentWorkingSetHitsOnReuse) {
  CacheSim sim(64 * kKiB, 8, 64);
  for (int pass = 0; pass < 4; ++pass) {
    for (std::uint64_t addr = 0; addr < 32 * kKiB; addr += 64) {
      sim.access(addr, false);
    }
  }
  EXPECT_EQ(sim.stats().misses(), 32 * kKiB / 64);  // first pass only
}

TEST(CacheSim, OversizedWorkingSetThrashesWithLru) {
  CacheSim sim(64 * kKiB, 8, 64);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t addr = 0; addr < 128 * kKiB; addr += 64) {
      sim.access(addr, false);
    }
  }
  // Cyclic sweep over 2x capacity with LRU: everything misses.
  EXPECT_EQ(sim.stats().hits, 0u);
}

TEST(CacheSim, DirtyEvictionProducesWriteback) {
  CacheSim sim(4 * kKiB, 1, 64);  // direct-mapped, 64 sets
  sim.access(0, true);            // dirty line in set 0
  sim.access(4 * kKiB, false);    // conflicting line evicts it
  EXPECT_EQ(sim.stats().writebacks, 1u);
}

TEST(CacheSim, FlushWritesBackDirtyLines) {
  CacheSim sim(4 * kKiB, 2, 64);
  sim.access(0, true);
  sim.access(64, true);
  sim.access(128, false);
  sim.flush();
  EXPECT_EQ(sim.stats().writebacks, 2u);
  // After flush, the same lines miss again.
  sim.access(0, false);
  EXPECT_EQ(sim.stats().load_misses, 2u);
}

TEST(CacheSim, RejectsBadGeometry) {
  EXPECT_THROW(CacheSim(1000, 8, 64), ContractError);   // not a multiple
  EXPECT_THROW(CacheSim(4096, 8, 63), ContractError);   // non-pow2 line
  EXPECT_THROW(CacheSim(4096, 0, 64), ContractError);   // zero ways
}

// Cross-validation: the analytic model's miss count for a random-access
// pattern should be within a factor of ~2 of the reference simulator.
TEST(CacheCrossValidation, RandomAccessPattern) {
  const std::uint64_t cache_bytes = 256 * kKiB;
  const std::uint64_t fp = 1 * kMiB;
  const std::uint64_t accesses = 200'000;

  CacheSim sim(cache_bytes, 8, 64);
  Rng rng(42);
  for (std::uint64_t i = 0; i < accesses; ++i) {
    sim.access(rng.next_below(fp), false);
  }
  const double sim_misses = static_cast<double>(sim.stats().misses());

  // Random uniform reuse: steady-state hit probability ~ resident share,
  // with no spatial adjacency between consecutive accesses.
  const CacheModel model{cache_bytes};
  ObjectTraffic t = make_traffic(accesses, fp, 1.0);
  t.spatial = 0.0;
  const MemTraffic mm = model.filter(t, fp);
  const double model_misses = static_cast<double>(mm.read_lines);

  EXPECT_GT(model_misses, sim_misses * 0.5);
  EXPECT_LT(model_misses, sim_misses * 2.0);
}

}  // namespace
}  // namespace tahoe::memsim
