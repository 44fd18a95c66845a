// Allocation invariant of the fresh-graph path, the one every serving epoch
// takes: once warm, GraphBuilder::build and SimExecutor::run allocate only
// their per-run set-up (a fresh builder's graph arrays), never per task,
// per access or per simulation event. So a 1,024-task graph costs them as
// many heap allocations as a 16-task graph of the same shape. An
// iteration that keeps the previous graph allocates nothing at all, and a
// warm serving epoch, declared into a builder given the spent graph,
// allocates only each task's access list. This binary replaces the global
// operator new with a counting one and counts only inside the measured
// calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "hms/registry.hpp"
#include "memsim/machine.hpp"
#include "serve/service.hpp"
#include "task/graph.hpp"
#include "task/sim_executor.hpp"
#include "workloads/common.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

// Kept out of line: inlined into a delete expression, a free() of what new
// returned reads as a mismatched pair to the compiler.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace tahoe::task {
namespace {

/// Heap allocations made inside `f`.
template <typename F>
std::size_t allocations_in(F&& f) {
  allocations.store(0);
  counting.store(true);
  f();
  counting.store(false);
  return allocations.load();
}

constexpr std::size_t kWidth = 8;   ///< tasks per group
constexpr std::size_t kSlots = 8;   ///< chunks of the state object

DataAccess access(hms::ObjectId obj, std::size_t chunk, AccessMode mode) {
  DataAccess a;
  a.object = obj;
  a.chunk = chunk;
  a.mode = mode;
  a.traffic.loads = 1 << 12;
  a.traffic.stores = mode == AccessMode::Read ? 0 : 1 << 10;
  a.traffic.footprint = 1 << 16;
  a.traffic.dep_frac = 0.25;
  return a;
}

/// `tasks` / kWidth groups of kWidth tasks. Each task reads a chunk of a
/// table (object 1), read-writes its slot of a state object (object 2)
/// that the same slot's task of the next group depends on, and every
/// fourth task reads or writes a whole lookup object (object 3): RAW, WAR
/// and WAW edges, within and across groups, chunk and whole-object units.
void declare(GraphBuilder& gb, std::size_t tasks) {
  for (std::size_t g = 0; g < tasks / kWidth; ++g) {
    gb.begin_group("g" + std::to_string(g % 4));
    for (std::size_t i = 0; i < kWidth; ++i) {
      Task t;
      t.compute_seconds = 1e-5;
      t.accesses.push_back(access(1, (g + i) % 4, AccessMode::Read));
      t.accesses.push_back(access(2, i % kSlots, AccessMode::ReadWrite));
      if (i % 4 == 0) {
        t.accesses.push_back(access(
            3, kAllChunks, g % 2 == 0 ? AccessMode::Read : AccessMode::Write));
      }
      gb.add_task(std::move(t));
    }
  }
}

TaskGraph graph_of(std::size_t tasks) {
  GraphBuilder gb;
  declare(gb, tasks);
  return gb.build();
}

/// Allocations of one build() of a `tasks`-task graph after one build of
/// the same graph. Declaring the tasks is not counted.
std::size_t build_allocations(std::size_t tasks) {
  (void)graph_of(tasks);
  GraphBuilder gb;
  declare(gb, tasks);
  TaskGraph g;
  return allocations_in([&] { g = gb.build(); });
}

/// Every unit the graph touches, on the capacity tier.
hms::PlacementMap start_of(const memsim::Machine& m) {
  hms::PlacementMap p;
  for (std::size_t c = 0; c < 4; ++c) p.set(1, c, m.capacity_tier());
  for (std::size_t c = 0; c < kSlots; ++c) p.set(2, c, m.capacity_tier());
  p.set(3, 0, m.capacity_tier());
  return p;
}

/// A copy of a table chunk to DRAM or back at every other group, needed
/// by the group after.
std::vector<ScheduledCopy> schedule_of(const TaskGraph& g) {
  std::vector<ScheduledCopy> schedule;
  for (GroupId grp = 0; grp + 1 < g.num_groups(); grp += 2) {
    schedule.push_back(ScheduledCopy{
        1, grp % 4, 1 << 20,
        (grp / 2) % 2 == 0 ? memsim::kDram : memsim::kNvm, grp, grp + 1});
  }
  return schedule;
}

/// Allocations of one run of a `tasks`-task graph on an executor that has
/// run it once before.
std::size_t run_allocations(std::size_t tasks,
                            const SimExecutor::Options& options) {
  const memsim::Machine m = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(256 * kMiB),
                                       0.5, 16 * kGiB),
      256 * kMiB);
  const TaskGraph g = graph_of(tasks);
  const std::vector<ScheduledCopy> schedule = schedule_of(g);
  SimExecutor executor;
  hms::PlacementMap warm = start_of(m);
  (void)executor.run(g, m, warm, schedule, options);
  hms::PlacementMap placement = start_of(m);
  return allocations_in(
      [&] { (void)executor.run(g, m, placement, schedule, options); });
}

TEST(AllocInvariant, BuildAllocatesNothingPerTask) {
  EXPECT_EQ(build_allocations(1024), build_allocations(16));
}

TEST(AllocInvariant, ScanCoreRunAllocatesNothingPerTaskOrEvent) {
  SimExecutor::Options options;
  options.workers = 4;
  EXPECT_EQ(run_allocations(1024, options), run_allocations(16, options));
}

TEST(AllocInvariant, IndexedEngineRunAllocatesNothingPerTaskOrEvent) {
  // Past two active flows the indexed engine takes over, in the first
  // group, for the rest of the run.
  SimExecutor::Options options;
  options.workers = kWidth;
  options.sim_lazy_threshold = 2;
  EXPECT_EQ(run_allocations(1024, options), run_allocations(16, options));
}

TEST(AllocInvariant, WarmServingEpochAllocatesOneAccessListPerTask) {
  // An epoch as run_serve runs one: 16 requests each of a KV, a tensor and
  // a graph tenant declared into a builder given the last epoch's graph,
  // built, and run on the executor that ran the last epoch.
  const memsim::Machine m = memsim::machines::optane_platform(64 * kMiB);
  hms::ObjectRegistry registry({64 * kMiB, 16 * kGiB}, hms::Backing::Virtual);
  serve::KvConfig kv;
  kv.chunk_bytes = 2 * kMiB;
  std::vector<std::unique_ptr<serve::Service>> services;
  services.push_back(serve::make_kv_service(kv));
  services.push_back(serve::make_tensor_service(serve::TensorConfig{}));
  services.push_back(serve::make_graph_service(serve::GraphConfig{}));
  hms::PlacementMap placement;
  for (const std::unique_ptr<serve::Service>& service : services) {
    service->provision(registry);
    for (const hms::ObjectId id : service->objects()) {
      for (std::size_t c = 0; c < registry.get(id).num_chunks(); ++c) {
        placement.set(id, c, m.capacity_tier());
      }
    }
  }
  SimExecutor executor;
  TaskGraph graph;
  const Rng seed(7);
  Rng rng = seed;
  std::uint64_t tag = 0;
  const auto epoch = [&] {
    GraphBuilder builder(std::move(graph));
    for (const std::unique_ptr<serve::Service>& service : services) {
      builder.begin_group(service->kind());
      for (int r = 0; r < 16; ++r) service->append_request(builder, tag++, rng);
    }
    graph = builder.build();
    (void)executor.run(graph, m, placement, {});
  };
  for (int warm = 0; warm < 8; ++warm) epoch();
  // Replay the warm epochs: each declares a graph that the kept storage
  // has held (one that outgrows them all allocates its growth, once).
  rng = seed;
  tag = 0;
  for (int i = 0; i < 8; ++i) {
    const std::size_t allocated = allocations_in(epoch);
    EXPECT_EQ(allocated, graph.num_tasks()) << "epoch " << i;
  }
}

TEST(AllocInvariant, KeptIterationAllocatesNothing) {
  // Two warm iterations built as the simulated runtime builds them, then a
  // third, declared and built through a builder given the second's graph.
  for (const char* name : {"cg", "lu", "mg", "nekproxy"}) {
    const std::unique_ptr<core::Application> app =
        workloads::make_workload(name, workloads::Scale::Bench);
    hms::ObjectRegistry registry({256 * kMiB, 256 * kGiB},
                                 hms::Backing::Virtual);
    hms::ChunkingPolicy chunking;
    chunking.dram_capacity = 256 * kMiB;
    app->setup(registry, chunking);
    TaskGraph g;
    const auto build = [&](std::size_t iter) {
      GraphBuilder builder(std::move(g));
      app->build_iteration(builder, iter);
      g = builder.build();
    };
    build(0);
    build(1);
    EXPECT_EQ(allocations_in([&] { build(2); }), 0u) << name;
    EXPECT_GT(g.num_tasks(), 0u) << name;
  }
}

}  // namespace
}  // namespace tahoe::task
