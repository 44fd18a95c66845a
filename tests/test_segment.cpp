// Segment allocator: randomized stress against a shadow-map oracle,
// exhaustion and fault-injection failure paths, attach-time header
// validation, and freelist reuse semantics.
#include "hms/segment.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace tahoe::hms {
namespace {

TEST(Segment, HeaderIsInitialized) {
  Segment seg(1 * kMiB);
  EXPECT_EQ(seg.header().magic, SegmentHeader::kMagic);
  EXPECT_EQ(seg.header().version, SegmentHeader::kVersion);
  EXPECT_EQ(seg.header().bytes, seg.size());
  EXPECT_EQ(seg.root(), 0u);
  EXPECT_EQ(seg.live_allocations(), 0u);
  EXPECT_GE(seg.used(), sizeof(SegmentHeader));
}

TEST(Segment, AllocFreeRoundTrip) {
  Segment seg(1 * kMiB);
  void* a = seg.alloc(100);
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(seg.contains(a));
  EXPECT_EQ(seg.live_allocations(), 1u);
  // Offsets and addresses round-trip.
  EXPECT_EQ(seg.at(seg.offset_of(a)), a);
  seg.free(a);
  EXPECT_EQ(seg.live_allocations(), 0u);
  EXPECT_EQ(seg.freelist_blocks(), 1u);
  // A same-class allocation reuses the freed block exactly.
  void* b = seg.alloc(100);
  EXPECT_EQ(b, a);
  EXPECT_EQ(seg.freelist_blocks(), 0u);
}

TEST(Segment, TypedAccessMustFitInsideTheMapping) {
  Segment seg(1 * kMiB);
  const std::uint64_t last = seg.size() - sizeof(SegmentHeader);
  EXPECT_EQ(seg.at_as<SegmentHeader>(last),
            static_cast<void*>(seg.base() + last));
  // One byte further and the header would run past the end.
  EXPECT_THROW(seg.at_as<SegmentHeader>(last + 1), ContractError);
  EXPECT_THROW(seg.at_as<SegmentHeader>(seg.size() - 1), ContractError);
  // Offsets near the top of the range must not wrap the bounds check.
  EXPECT_THROW(seg.at_as<SegmentHeader>(~std::uint64_t{0} - 8), ContractError);
  // Untyped access keeps its one-byte bound.
  EXPECT_EQ(seg.at(seg.size() - 1),
            static_cast<void*>(seg.base() + seg.size() - 1));
  EXPECT_THROW(seg.at(seg.size()), ContractError);
}

TEST(Segment, LargeBlocksUseFirstFitReuse) {
  Segment seg(4 * kMiB);
  void* big = seg.alloc(200 * kKiB);  // beyond the largest pow2 class
  ASSERT_NE(big, nullptr);
  seg.free(big);
  // A smaller large-class request reuses the freed block (first fit).
  void* again = seg.alloc(100 * kKiB);
  EXPECT_EQ(again, big);
}

TEST(Segment, ZeroByteAllocThrows) {
  Segment seg(1 * kMiB);
  EXPECT_THROW(seg.alloc(0), ContractError);
}

TEST(Segment, ForeignAndDoubleFreesThrow) {
  Segment seg(1 * kMiB);
  int x = 0;
  EXPECT_THROW(seg.free(&x), ContractError);
  EXPECT_THROW(seg.free(nullptr), ContractError);
  void* p = seg.alloc(64);
  seg.free(p);
  EXPECT_THROW(seg.free(p), ContractError);  // double free
}

TEST(Segment, ExhaustionReturnsNull) {
  Segment seg(64 * kKiB);
  std::vector<void*> live;
  while (void* p = seg.alloc(1 * kKiB)) live.push_back(p);
  EXPECT_GT(live.size(), 10u);   // most of the segment was allocatable
  EXPECT_EQ(seg.alloc(1 * kKiB), nullptr);  // and it fails cleanly when full
  // Freeing restores allocatability.
  seg.free(live.back());
  live.pop_back();
  EXPECT_NE(seg.alloc(1 * kKiB), nullptr);
}

TEST(Segment, ReallocGrowsAndPreservesContents) {
  Segment seg(1 * kMiB);
  auto* p = static_cast<std::byte*>(seg.alloc(40));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5a, 40);
  // Within the same size class the block is reused in place.
  EXPECT_EQ(seg.realloc(p, 48), p);
  // Growing beyond the class moves the payload.
  auto* q = static_cast<std::byte*>(seg.realloc(p, 4096));
  ASSERT_NE(q, nullptr);
  EXPECT_NE(q, p);
  for (int i = 0; i < 40; ++i) ASSERT_EQ(q[i], std::byte{0x5a});
  // realloc(nullptr) behaves like alloc.
  EXPECT_NE(seg.realloc(nullptr, 16), nullptr);
}

TEST(Segment, RootOffsetPersists) {
  Segment seg(1 * kMiB);
  void* p = seg.alloc(128);
  seg.set_root(seg.offset_of(p));
  EXPECT_EQ(seg.at(seg.root()), p);
}

// ---- randomized stress with a shadow-map oracle -------------------------

TEST(SegmentStress, RandomizedAllocFreeReallocMatchesOracle) {
  Segment seg(8 * kMiB);
  Rng rng(0xdecafbadULL);
  // ptr -> (size, fill byte). Every live block stays filled with its tag;
  // any allocator overlap or lost-update bug corrupts a tag.
  std::map<std::byte*, std::pair<std::uint64_t, std::uint8_t>> oracle;
  std::uint8_t next_tag = 1;

  auto check_all = [&] {
    for (const auto& [p, meta] : oracle) {
      for (std::uint64_t i = 0; i < meta.first; ++i) {
        ASSERT_EQ(p[i], std::byte{meta.second})
            << "corruption in block of " << meta.first << " bytes";
      }
    }
  };

  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.5 || oracle.empty()) {
      const std::uint64_t size = 1 + rng.next_below(80 * 1024);
      auto* p = static_cast<std::byte*>(seg.alloc(size));
      if (p == nullptr) continue;  // exhausted this round: fine
      const std::uint8_t tag = next_tag++;
      if (next_tag == 0) next_tag = 1;
      std::memset(p, tag, size);
      ASSERT_TRUE(oracle.emplace(p, std::make_pair(size, tag)).second)
          << "allocator returned a live pointer twice";
    } else if (roll < 0.8) {
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
      seg.free(it->first);
      oracle.erase(it);
    } else {
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
      const std::uint64_t size = 1 + rng.next_below(96 * 1024);
      auto* p = static_cast<std::byte*>(seg.realloc(it->first, size));
      if (p == nullptr) continue;  // grow failed; original block untouched
      const std::uint64_t keep = std::min(size, it->second.first);
      for (std::uint64_t i = 0; i < keep; ++i) {
        ASSERT_EQ(p[i], std::byte{it->second.second});
      }
      const std::uint8_t tag = it->second.second;
      if (p != it->first) oracle.erase(it);
      std::memset(p, tag, size);
      oracle[p] = {size, tag};
    }
    if (step % 512 == 0) check_all();
    ASSERT_EQ(seg.live_allocations(), oracle.size());
  }
  check_all();
  // Drain and confirm full accounting.
  while (!oracle.empty()) {
    seg.free(oracle.begin()->first);
    oracle.erase(oracle.begin());
  }
  EXPECT_EQ(seg.live_allocations(), 0u);
  EXPECT_EQ(seg.live_bytes(), 0u);
}

// ---- fault injection ----------------------------------------------------

TEST(SegmentFault, InjectedSegmentAllocFailuresReturnNull) {
  fault::FaultConfig cfg;
  cfg.segment_alloc = 1.0;  // every segment allocation fails
  fault::global().configure(cfg);
  Segment seg(1 * kMiB);
  EXPECT_EQ(seg.alloc(64), nullptr);
  EXPECT_EQ(fault::global().injected(fault::Site::SegmentAlloc), 1u);
  fault::global().disarm();
  EXPECT_NE(seg.alloc(64), nullptr);  // recovers once disarmed
}

TEST(SegmentFault, PartialRateStillLeavesProgress) {
  fault::FaultConfig cfg;
  cfg.segment_alloc = 0.5;
  fault::global().configure(cfg);
  Segment seg(4 * kMiB);
  int ok = 0;
  for (int i = 0; i < 200; ++i) {
    if (seg.alloc(64) != nullptr) ++ok;
  }
  const std::uint64_t injected =
      fault::global().injected(fault::Site::SegmentAlloc);
  fault::global().disarm();  // disarm resets the counts; read first
  EXPECT_GT(ok, 0);
  EXPECT_LT(ok, 200);
  EXPECT_GT(injected, 0u);
}

// ---- attach validation --------------------------------------------------

TEST(SegmentAttach, AcceptsAValidImage) {
  Segment seg(1 * kMiB);
  void* p = seg.alloc(64);
  seg.set_root(seg.offset_of(p));
  Segment view = Segment::attach(seg.base(), seg.size());
  EXPECT_FALSE(view.owning());
  EXPECT_EQ(view.root(), seg.root());
  EXPECT_EQ(view.live_allocations(), 1u);
}

TEST(SegmentAttach, RejectsBadMagic) {
  Segment seg(1 * kMiB);
  std::vector<std::byte> image(seg.size());
  std::memcpy(image.data(), seg.base(), seg.size());
  image[0] = std::byte{0x00};  // corrupt the magic
  EXPECT_THROW(Segment::attach(image.data(), image.size()), ContractError);
}

TEST(SegmentAttach, RejectsWrongVersion) {
  Segment seg(1 * kMiB);
  std::vector<std::byte> image(seg.size());
  std::memcpy(image.data(), seg.base(), seg.size());
  auto* header = reinterpret_cast<SegmentHeader*>(image.data());
  header->version = SegmentHeader::kVersion + 1;
  EXPECT_THROW(Segment::attach(image.data(), image.size()), ContractError);
}

TEST(SegmentAttach, RejectsSizeMismatch) {
  Segment seg(1 * kMiB);
  EXPECT_THROW(Segment::attach(seg.base(), seg.size() / 2), ContractError);
  EXPECT_THROW(Segment::attach(nullptr, seg.size()), ContractError);
}

TEST(SegmentShm, FileBackedSegmentWorksWhenShmIsAvailable) {
  // /dev/shm may be unavailable in minimal containers; the constructor
  // contract (throw, not crash) is all this asserts in that case.
  ::shm_unlink("/tahoe-test-segment");  // clear leftovers from crashed runs
  try {
    Segment seg("/tahoe-test-segment", 1 * kMiB);
    EXPECT_EQ(seg.shm_name(), "/tahoe-test-segment");
    void* p = seg.alloc(64);
    EXPECT_NE(p, nullptr);
  } catch (const ContractError&) {
    GTEST_SKIP() << "shm_open unavailable in this environment";
  }
}

TEST(SegmentShm, NameMustStartWithSlash) {
  EXPECT_THROW(Segment("bad-name", 1 * kMiB), ContractError);
}

}  // namespace
}  // namespace tahoe::hms
