// Concurrency stress for the MigrationEngine under injected faults: many
// producers enqueueing and syncing against the helper thread while copies
// abort, stall, and get cancelled. Designed to run clean under TSan (the
// repo's TAHOE_SANITIZE=thread preset) — it exercises every lock/condvar
// path the engine has.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "common/units.hpp"
#include "hms/migration.hpp"

namespace tahoe::hms {
namespace {

class MigrationStress : public ::testing::Test {
 protected:
  void TearDown() override { fault::global().disarm(); }
};

TEST_F(MigrationStress, ManyProducersSurviveInjectedAborts) {
  // 8 producers ping-pong their own object through the shared engine for
  // 24 rounds while ~30% of copies abort (each retried up to 3 times).
  // Payloads must survive every outcome: moved, retried-then-moved, or
  // abandoned-and-pinned.
  fault::FaultConfig cfg;
  cfg.seed = 2024;
  cfg.migration_abort = 0.30;
  fault::global().configure(cfg);

  constexpr int kProducers = 8;
  constexpr int kRounds = 24;
  constexpr std::size_t kWords = 1 << 12;
  ObjectRegistry reg({64 * kMiB, 256 * kMiB});
  std::vector<Handle<std::uint64_t>> handles;
  for (int p = 0; p < kProducers; ++p) {
    handles.push_back(make_array<std::uint64_t>(
        reg, "obj" + std::to_string(p), kWords, memsim::kNvm));
    for (std::size_t i = 0; i < kWords; ++i) {
      handles[static_cast<std::size_t>(p)][i] =
          static_cast<std::uint64_t>(p) * 1000003u + i;
    }
  }

  MigrationEngine engine(reg, MigrationEngine::Mode::HelperThread);
  std::atomic<int> corrupt{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Handle<std::uint64_t>& h = handles[static_cast<std::size_t>(p)];
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t tag =
            static_cast<std::uint64_t>(p * kRounds + r);
        engine.enqueue(MigrationRequest{
            h.id(), 0, r % 2 == 0 ? memsim::kDram : memsim::kNvm, tag});
        engine.wait_tag(tag);
        // Application phase: validate and touch own data.
        for (std::size_t i = 0; i < kWords; i += 512) {
          if (h[i] != static_cast<std::uint64_t>(p) * 1000003u + i) {
            corrupt.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  engine.drain();

  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(engine.pending(), 0u);
  // Every abort-site firing is accounted for in the registry stats, and
  // every abandoned request paid its retries first.
  EXPECT_EQ(reg.stats().copy_aborts,
            fault::global().injected(fault::Site::MigrationAbort));
  if (engine.aborted() > 0) {
    EXPECT_GE(engine.retried(), engine.aborted());
  }
  // Pinned objects are exactly the degraded ones, and they ended on NVM.
  for (const ObjectId id : engine.degraded_objects()) {
    EXPECT_TRUE(engine.is_pinned(id));
    EXPECT_EQ(reg.get(id).device(), memsim::kNvm);
  }
}

TEST_F(MigrationStress, AlwaysAbortingCopyPinsObjectDeterministically) {
  fault::FaultConfig cfg;
  cfg.seed = 1;
  cfg.migration_abort = 1.0;  // every attempt fails
  fault::global().configure(cfg);

  ObjectRegistry reg({16 * kMiB, 64 * kMiB});
  const ObjectId id = reg.create("doomed", 1 * kMiB, memsim::kNvm);
  MigrationEngine::Options opts;
  opts.mode = MigrationEngine::Mode::HelperThread;
  opts.retry_backoff_seconds = 1e-6;
  MigrationEngine engine(reg, opts);

  engine.enqueue(MigrationRequest{id, 0, memsim::kDram, 0});
  engine.drain();
  EXPECT_EQ(engine.retried(), 3u);
  EXPECT_EQ(engine.aborted(), 1u);
  EXPECT_TRUE(engine.is_pinned(id));
  EXPECT_EQ(reg.get(id).device(), memsim::kNvm);
  EXPECT_EQ(reg.stats().copy_aborts, 4u);  // 1 try + 3 retries

  // Later promotion attempts for the pinned object are dropped up front.
  engine.enqueue(MigrationRequest{id, 0, memsim::kDram, 1});
  engine.drain();
  EXPECT_EQ(engine.cancelled(), 1u);
  EXPECT_EQ(engine.aborted(), 1u);  // no new execution happened
  // Demotions (already there) still pass through unharmed.
  engine.enqueue(MigrationRequest{id, 0, memsim::kNvm, 2});
  engine.drain();
  EXPECT_EQ(reg.get(id).device(), memsim::kNvm);
}

TEST_F(MigrationStress, FailedCopyToAnyFasterTierPinsObject) {
  // Three tiers: a copy toward tier 1 is as much a promotion as one toward
  // tier 0, so exhausting its retries pins the object too, and later
  // promotions of it are dropped whichever fast tier they target.
  fault::FaultConfig cfg;
  cfg.seed = 1;
  cfg.migration_abort = 1.0;
  fault::global().configure(cfg);

  ObjectRegistry reg({4 * kMiB, 4 * kMiB, 64 * kMiB});
  const ObjectId a = reg.create("a", 1 * kMiB, reg.capacity_tier());
  const ObjectId b = reg.create("b", 1 * kMiB, reg.capacity_tier());
  MigrationEngine::Options opts;
  opts.mode = MigrationEngine::Mode::HelperThread;
  opts.retry_backoff_seconds = 1e-6;
  MigrationEngine engine(reg, opts);

  engine.enqueue(MigrationRequest{a, 0, 1, 0});
  engine.enqueue(MigrationRequest{b, 0, 0, 0});
  engine.drain();
  EXPECT_EQ(engine.aborted(), 2u);
  EXPECT_TRUE(engine.is_pinned(a));
  EXPECT_TRUE(engine.is_pinned(b));
  EXPECT_EQ(engine.degraded_objects(), (std::vector<ObjectId>{a, b}));

  engine.enqueue(MigrationRequest{a, 0, 1, 1});
  engine.enqueue(MigrationRequest{a, 0, 0, 1});
  engine.drain();
  EXPECT_EQ(engine.cancelled(), 2u);
  EXPECT_EQ(engine.aborted(), 2u);  // no new execution happened

  // A failed demotion is not a promotion: it pins nothing.
  const ObjectId c = reg.create("c", 1 * kMiB, 1);
  engine.enqueue(MigrationRequest{c, 0, reg.capacity_tier(), 2});
  engine.drain();
  EXPECT_EQ(engine.aborted(), 3u);
  EXPECT_FALSE(engine.is_pinned(c));
}

TEST_F(MigrationStress, CancelTagDropsQueuedButNeverInFlight) {
  // A guaranteed stall holds the worker on the first request long enough
  // for cancel_tag to see the rest still queued.
  fault::FaultConfig cfg;
  cfg.seed = 3;
  cfg.copy_stall = 1.0;
  cfg.copy_stall_seconds = 0.2;
  fault::global().configure(cfg);

  ObjectRegistry reg({64 * kMiB, 256 * kMiB});
  std::vector<ObjectId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(
        reg.create("v" + std::to_string(i), 1 * kMiB, memsim::kNvm));
  }
  MigrationEngine engine(reg, MigrationEngine::Mode::HelperThread);
  for (const ObjectId id : ids) {
    engine.enqueue(MigrationRequest{id, 0, memsim::kDram, 0});
  }
  // Give the worker time to pick up (and stall on) the first request.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(engine.wait_tag_for(0, 0.01));  // stalled: deadline expires
  const std::size_t n = engine.cancel_tag(0);
  EXPECT_GE(n, 3u);  // at least the tail of the queue was still pending
  engine.drain();
  EXPECT_EQ(engine.cancelled(), n);
  EXPECT_EQ(engine.pending(), 0u);
  // The in-flight copy completed despite the cancellation sweep.
  EXPECT_GE(reg.stats().migrations, 1u);
  EXPECT_LE(reg.stats().migrations, ids.size() - n);
  // Cancelled objects never moved.
  std::size_t on_dram = 0;
  for (const ObjectId id : ids) {
    if (reg.get(id).device() == memsim::kDram) ++on_dram;
  }
  EXPECT_EQ(on_dram, reg.stats().migrations);
}

TEST_F(MigrationStress, ProducersRaceCancellationCleanly) {
  // Producers enqueue while another thread repeatedly cancels: exercises
  // the queue/condvar paths against each other. No assertion beyond
  // "terminates with consistent bookkeeping" — TSan checks the rest.
  fault::FaultConfig cfg;
  cfg.seed = 7;
  cfg.copy_stall = 0.5;
  cfg.copy_stall_seconds = 1e-3;
  cfg.migration_abort = 0.2;
  fault::global().configure(cfg);

  ObjectRegistry reg({64 * kMiB, 256 * kMiB});
  std::vector<ObjectId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(
        reg.create("v" + std::to_string(i), 256 * kKiB, memsim::kNvm));
  }
  MigrationEngine engine(reg, MigrationEngine::Mode::HelperThread);

  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      engine.cancel_tag(1);  // sweep anything still queued for early tags
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (int r = 0; r < 30; ++r) {
        const std::size_t idx =
            static_cast<std::size_t>((p + r) % static_cast<int>(ids.size()));
        engine.enqueue(MigrationRequest{
            ids[idx], 0, r % 2 == 0 ? memsim::kDram : memsim::kNvm,
            static_cast<std::uint64_t>(r % 3)});
      }
      engine.wait_tag(2);
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  canceller.join();
  engine.drain();
  EXPECT_EQ(engine.pending(), 0u);
  // All requests are accounted for: executed, rejected, or cancelled.
  SUCCEED();
}

}  // namespace
}  // namespace tahoe::hms
