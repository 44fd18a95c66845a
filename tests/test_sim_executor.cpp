// Simulated executor: placement-dependent timing, proactive copies,
// stall accounting, capacity invariants.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "memsim/machine.hpp"
#include "task/sim_executor.hpp"
#include "trace/trace.hpp"

namespace tahoe::task {
namespace {

memsim::Machine half_bw_machine(std::uint64_t dram = 256 * kMiB) {
  return memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(dram), 0.5,
                                       16 * kGiB),
      dram);
}

DataAccess stream_access(hms::ObjectId obj, std::uint64_t elems,
                         AccessMode mode = AccessMode::Read) {
  DataAccess a;
  a.object = obj;
  a.chunk = 0;
  a.mode = mode;
  a.traffic.loads = elems;
  a.traffic.footprint = elems * 8;
  a.traffic.locality = 0.0;
  a.traffic.dep_frac = 0.0;
  return a;
}

TaskGraph one_group_graph(std::size_t tasks, hms::ObjectId obj,
                          std::uint64_t elems) {
  GraphBuilder gb;
  gb.begin_group("g");
  for (std::size_t i = 0; i < tasks; ++i) {
    Task t;
    t.accesses = {stream_access(obj, elems)};
    gb.add_task(std::move(t));
  }
  return gb.build();
}

TEST(SimExecutor, NvmSlowerThanDramForStreams) {
  const memsim::Machine m = half_bw_machine();
  const TaskGraph g = one_group_graph(8, 1, 4 << 20);
  SimExecutor ex;
  SimExecutor::Options opts;

  hms::PlacementMap on_nvm;
  on_nvm.set(1, 0, memsim::kNvm);
  const double t_nvm = ex.run(g, m, on_nvm, {}, opts).makespan;

  hms::PlacementMap on_dram;
  on_dram.set(1, 0, memsim::kDram);
  const double t_dram = ex.run(g, m, on_dram, {}, opts).makespan;

  EXPECT_GT(t_nvm, 1.5 * t_dram);  // ~2x minus compute/latency floors
}

TEST(SimExecutor, WorkerLimitSerializesExcessTasks) {
  const memsim::Machine m = half_bw_machine();
  // Compute-only tasks: makespan scales with ceil(tasks/workers).
  GraphBuilder gb;
  gb.begin_group("g");
  for (int i = 0; i < 8; ++i) {
    Task t;
    t.compute_seconds = 1.0;
    t.accesses = {stream_access(1, 1)};
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  SimExecutor ex;
  SimExecutor::Options o2;
  o2.workers = 2;
  hms::PlacementMap p;
  EXPECT_NEAR(ex.run(g, m, p, {}, o2).makespan, 4.0, 1e-6);
  SimExecutor::Options o8;
  o8.workers = 8;
  hms::PlacementMap p2;
  EXPECT_NEAR(ex.run(g, m, p2, {}, o8).makespan, 1.0, 1e-6);
}

TEST(SimExecutor, IntraGroupDependencesSerialize) {
  const memsim::Machine m = half_bw_machine();
  GraphBuilder gb;
  gb.begin_group("g");
  for (int i = 0; i < 4; ++i) {
    Task t;
    t.compute_seconds = 1.0;
    t.accesses = {stream_access(1, 1, AccessMode::ReadWrite)};  // chain
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  SimExecutor ex;
  SimExecutor::Options opts;
  opts.workers = 8;
  hms::PlacementMap p;
  EXPECT_NEAR(ex.run(g, m, p, {}, opts).makespan, 4.0, 1e-6);
}

TEST(SimExecutor, CopyUpdatesPlacementAndSpeedsLaterGroups) {
  const memsim::Machine m = half_bw_machine();
  const std::uint64_t elems = 8 << 20;  // 64 MiB object
  GraphBuilder gb;
  // Group 0 does unrelated compute; group 1 streams object 1.
  gb.begin_group("warmup");
  {
    Task t;
    t.compute_seconds = 1.0;  // plenty of time to hide the copy
    t.accesses = {stream_access(2, 1)};
    gb.add_task(std::move(t));
  }
  gb.begin_group("consume");
  for (int i = 0; i < 4; ++i) {
    Task t;
    t.accesses = {stream_access(1, elems / 4)};
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();

  SimExecutor ex;
  SimExecutor::Options opts;

  hms::PlacementMap stay;
  stay.set(1, 0, memsim::kNvm);
  const SimReport no_copy = ex.run(g, m, stay, {}, opts);

  hms::PlacementMap moved;
  moved.set(1, 0, memsim::kNvm);
  const std::vector<ScheduledCopy> schedule{
      ScheduledCopy{1, 0, elems * 8, memsim::kDram, 0, 1}};
  const SimReport with_copy = ex.run(g, m, moved, schedule, opts);

  EXPECT_EQ(with_copy.copies_done, 1u);
  EXPECT_EQ(with_copy.bytes_copied, elems * 8);
  EXPECT_EQ(moved.device_of(1, 0), memsim::kDram);
  EXPECT_LT(with_copy.makespan, no_copy.makespan);
  // The 64 MiB copy at 6 GB/s (~11 ms) hides under 1 s of compute.
  EXPECT_NEAR(with_copy.stall_seconds, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(with_copy.overlap_fraction(), 1.0);
}

TEST(SimExecutor, TracesCopiesPerDestinationTier) {
  // Four tiers: fills into DRAM (tier 1) and CXL-DRAM (tier 2) get tracks
  // of their own instead of one lumped "nvm" direction.
  const memsim::Machine m =
      memsim::machines::cxl_platform(8 * kMiB, 8 * kMiB, 8 * kMiB, 1 * kGiB);
  GraphBuilder gb;
  for (const hms::ObjectId obj : {1, 2}) {
    gb.begin_group("g" + std::to_string(obj));
    Task t;
    t.accesses = {stream_access(obj, 1024)};
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  hms::PlacementMap placement;
  placement.set(1, 0, 3);
  placement.set(2, 0, 3);
  const std::vector<ScheduledCopy> schedule{
      ScheduledCopy{1, 0, 1 * kMiB, 1, 0, 0},
      ScheduledCopy{2, 0, 1 * kMiB, 2, 0, 1}};
  trace::Tracer tracer;
  tracer.set_enabled(true);
  SimExecutor::Options opts;
  opts.tracer = &tracer;
  opts.unit_size = [](hms::ObjectId, std::size_t) { return 1 * kMiB; };
  SimExecutor ex;
  ex.run(g, m, placement, schedule, opts);
  std::set<std::string> tracks;
  for (const trace::TraceEvent& ev : tracer.drain()) {
    if (ev.kind == trace::EventKind::Counter) tracks.insert(ev.name);
  }
  EXPECT_TRUE(tracks.contains("inflight_to_t1_bytes"));
  EXPECT_TRUE(tracks.contains("inflight_to_t2_bytes"));
  EXPECT_TRUE(tracks.contains("t0_occupancy_bytes"));
  for (const std::string& name : tracks) {
    EXPECT_EQ(name.find("nvm"), std::string::npos) << name;
    EXPECT_EQ(name.find("dram"), std::string::npos) << name;
  }
}

TEST(SimExecutor, UnhiddenCopyStallsTheNeedingGroup) {
  const memsim::Machine m = half_bw_machine();
  const std::uint64_t elems = 8 << 20;
  GraphBuilder gb;
  gb.begin_group("consume");  // copy needed by the very first group
  {
    Task t;
    t.accesses = {stream_access(1, elems)};
    gb.add_task(std::move(t));
  }
  const TaskGraph g = gb.build();
  SimExecutor ex;
  SimExecutor::Options opts;
  hms::PlacementMap p;
  p.set(1, 0, memsim::kNvm);
  const std::vector<ScheduledCopy> schedule{
      ScheduledCopy{1, 0, elems * 8, memsim::kDram, 0, 0}};
  const SimReport r = ex.run(g, m, p, schedule, opts);
  EXPECT_GT(r.stall_seconds, 0.0);
  EXPECT_LT(r.overlap_fraction(), 0.1);
}

TEST(SimExecutor, NoopCopyIsFree) {
  const memsim::Machine m = half_bw_machine();
  const TaskGraph g = one_group_graph(2, 1, 1 << 20);
  SimExecutor ex;
  SimExecutor::Options opts;
  hms::PlacementMap p;
  p.set(1, 0, memsim::kDram);  // already there
  const std::vector<ScheduledCopy> schedule{
      ScheduledCopy{1, 0, 8 << 20, memsim::kDram, 0, 0}};
  const SimReport r = ex.run(g, m, p, schedule, opts);
  EXPECT_EQ(r.copies_done, 0u);
  EXPECT_EQ(r.bytes_copied, 0u);
  EXPECT_DOUBLE_EQ(r.stall_seconds, 0.0);
}

TEST(SimExecutor, CapacityInvariantEnforced) {
  const memsim::Machine m = half_bw_machine(64 * kMiB);
  const TaskGraph g = one_group_graph(1, 1, 1 << 20);
  SimExecutor ex;
  SimExecutor::Options opts;
  opts.unit_size = [](hms::ObjectId, std::size_t) -> std::uint64_t {
    return 48 * kMiB;
  };
  hms::PlacementMap p;
  p.set(1, 0, memsim::kNvm);
  p.set(2, 0, memsim::kDram);  // 48 MiB already resident
  // Filling object 1 (48 MiB) would exceed the 64 MiB DRAM.
  const std::vector<ScheduledCopy> schedule{
      ScheduledCopy{1, 0, 48 * kMiB, memsim::kDram, 0, 0}};
  EXPECT_THROW(ex.run(g, m, p, schedule, opts), ContractError);
}

TEST(SimExecutor, EvictionBeforeFillSatisfiesCapacity) {
  const memsim::Machine m = half_bw_machine(64 * kMiB);
  const TaskGraph g = one_group_graph(1, 1, 1 << 20);
  SimExecutor ex;
  SimExecutor::Options opts;
  opts.unit_size = [](hms::ObjectId, std::size_t) -> std::uint64_t {
    return 48 * kMiB;
  };
  hms::PlacementMap p;
  p.set(1, 0, memsim::kNvm);
  p.set(2, 0, memsim::kDram);
  const std::vector<ScheduledCopy> schedule{
      ScheduledCopy{2, 0, 48 * kMiB, memsim::kNvm, 0, 0},   // eviction first
      ScheduledCopy{1, 0, 48 * kMiB, memsim::kDram, 0, 0}};
  const SimReport r = ex.run(g, m, p, schedule, opts);
  EXPECT_EQ(r.copies_done, 2u);
  EXPECT_EQ(p.device_of(1, 0), memsim::kDram);
  EXPECT_EQ(p.device_of(2, 0), memsim::kNvm);
}

TEST(SimExecutor, GroupTimesSumToMakespan) {
  const memsim::Machine m = half_bw_machine();
  GraphBuilder gb;
  for (int gi = 0; gi < 4; ++gi) {
    gb.begin_group("g" + std::to_string(gi));
    for (int i = 0; i < 3; ++i) {
      Task t;
      t.compute_seconds = 0.01;
      t.accesses = {stream_access(static_cast<hms::ObjectId>(gi), 1 << 16)};
      gb.add_task(std::move(t));
    }
  }
  const TaskGraph g = gb.build();
  SimExecutor ex;
  SimExecutor::Options opts;
  hms::PlacementMap p;
  const SimReport r = ex.run(g, m, p, {}, opts);
  double sum = 0.0;
  for (double s : r.group_seconds) sum += s;
  EXPECT_NEAR(sum, r.makespan, 1e-9);
  ASSERT_EQ(r.task_seconds.size(), g.num_tasks());
  for (double ts : r.task_seconds) EXPECT_GT(ts, 0.0);
}

TEST(SimExecutor, DeterministicAcrossRuns) {
  const memsim::Machine m = half_bw_machine();
  const TaskGraph g = one_group_graph(16, 1, 1 << 20);
  SimExecutor ex;
  SimExecutor::Options opts;
  hms::PlacementMap p1;
  hms::PlacementMap p2;
  const double a = ex.run(g, m, p1, {}, opts).makespan;
  const double b = ex.run(g, m, p2, {}, opts).makespan;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(SimExecutor, RejectsMalformedSchedules) {
  const memsim::Machine m = half_bw_machine();
  const TaskGraph g = one_group_graph(1, 1, 1024);
  SimExecutor ex;
  hms::PlacementMap p;
  const std::vector<ScheduledCopy> bad{
      ScheduledCopy{1, 0, 64, memsim::kDram, 3, 1}};  // trigger after needed
  SimExecutor::Options opts;
  EXPECT_THROW(ex.run(g, m, p, bad, opts), ContractError);
}

// ---- one executor over several runs --------------------------------------

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (const double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

/// Every field of two reports equal, doubles bit for bit.
void expect_same_report(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.makespan),
            std::bit_cast<std::uint64_t>(b.makespan));
  EXPECT_EQ(bits(a.group_seconds), bits(b.group_seconds));
  EXPECT_EQ(bits(a.group_start), bits(b.group_start));
  EXPECT_EQ(bits(a.task_seconds), bits(b.task_seconds));
  EXPECT_EQ(a.copies_done, b.copies_done);
  EXPECT_EQ(a.bytes_copied, b.bytes_copied);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.copy_busy_seconds),
            std::bit_cast<std::uint64_t>(b.copy_busy_seconds));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.stall_seconds),
            std::bit_cast<std::uint64_t>(b.stall_seconds));
  EXPECT_EQ(bits(a.device_busy_seconds), bits(b.device_busy_seconds));
  EXPECT_EQ(a.tier_pair_bytes, b.tier_pair_bytes);
  ASSERT_EQ(a.access_tallies.size(), b.access_tallies.size());
  for (std::size_t i = 0; i < a.access_tallies.size(); ++i) {
    const AccessTally& x = a.access_tallies[i];
    const AccessTally& y = b.access_tallies[i];
    EXPECT_EQ(x.group, y.group);
    EXPECT_EQ(x.object, y.object);
    EXPECT_EQ(x.device, y.device);
    EXPECT_EQ(x.loads, y.loads);
    EXPECT_EQ(x.stores, y.stores);
    EXPECT_EQ(x.tasks, y.tasks);
  }
  ASSERT_EQ(a.copy_tallies.size(), b.copy_tallies.size());
  for (std::size_t i = 0; i < a.copy_tallies.size(); ++i) {
    const CopyTally& x = a.copy_tallies[i];
    const CopyTally& y = b.copy_tallies[i];
    EXPECT_EQ(x.object, y.object);
    EXPECT_EQ(x.src, y.src);
    EXPECT_EQ(x.dst, y.dst);
    EXPECT_EQ(x.copies, y.copies);
    EXPECT_EQ(x.bytes, y.bytes);
    EXPECT_EQ(x.hidden, y.hidden);
  }
}

/// One simulated run: its graph, machine, start residency, schedule and
/// options.
struct Scenario {
  TaskGraph graph;
  memsim::Machine machine;
  hms::PlacementMap start;
  std::vector<ScheduledCopy> schedule;
  SimExecutor::Options options;
};

/// Two tiers, three groups streaming a chunked object from NVM while a
/// chain of read-writes runs through a second object, and a schedule that
/// promotes two chunks and demotes one again after the last group.
Scenario two_tier_with_copies() {
  Scenario s;
  s.machine = half_bw_machine();
  GraphBuilder gb;
  for (int g = 0; g < 3; ++g) {
    gb.begin_group("g" + std::to_string(g));
    for (std::size_t i = 0; i < 6; ++i) {
      Task t;
      t.compute_seconds = 1e-4;
      DataAccess in = stream_access(1, 1 << 18);
      in.chunk = i % 4;
      t.accesses = {in, stream_access(2, 1 << 12, AccessMode::ReadWrite)};
      gb.add_task(std::move(t));
    }
  }
  s.graph = gb.build();
  for (std::size_t c = 0; c < 4; ++c) s.start.set(1, c, memsim::kNvm);
  s.start.set(2, 0, memsim::kNvm);
  s.schedule = {ScheduledCopy{1, 0, 16 * kMiB, memsim::kDram, 0, 1},
                ScheduledCopy{1, 1, 16 * kMiB, memsim::kDram, 1, 2},
                ScheduledCopy{1, 0, 16 * kMiB, memsim::kNvm, 2, 3}};
  s.options.workers = 4;
  s.options.attribution = true;
  s.options.unit_size = [](hms::ObjectId obj, std::size_t) {
    return obj == 1 ? 16 * kMiB : kMiB;
  };
  return s;
}

/// Four tiers: one object per tier, and a copy from the last tier to the
/// second while the first group runs.
Scenario four_tier() {
  Scenario s;
  s.machine = memsim::machines::cxl_platform(8 * kMiB, 8 * kMiB, 8 * kMiB,
                                             1 * kGiB);
  GraphBuilder gb;
  for (int g = 0; g < 2; ++g) {
    gb.begin_group("g" + std::to_string(g));
    for (hms::ObjectId obj = 0; obj < 4; ++obj) {
      Task t;
      t.compute_seconds = 1e-5;
      t.accesses = {stream_access(obj, 1 << 16, AccessMode::ReadWrite)};
      gb.add_task(std::move(t));
    }
  }
  s.graph = gb.build();
  for (hms::ObjectId obj = 0; obj < 4; ++obj) {
    s.start.set(obj, 0, static_cast<memsim::DeviceId>(obj));
  }
  s.schedule = {ScheduledCopy{3, 0, 512 * 1024, 1, 0, 1}};
  s.options.workers = 2;
  return s;
}

/// One group of 100 independent tasks on 128 workers: more flows at once
/// than the scan core's threshold, so the indexed engine takes over.
Scenario wide_group() {
  Scenario s;
  s.machine = half_bw_machine();
  s.graph = one_group_graph(100, 1, 1 << 14);
  s.start.set(1, 0, memsim::kNvm);
  s.options.workers = 128;
  return s;
}

TEST(SimExecutor, ReusedExecutorMatchesAFreshOne) {
  std::vector<Scenario> runs;
  runs.push_back(two_tier_with_copies());
  runs.push_back(four_tier());
  runs.push_back(wide_group());
  runs.push_back(two_tier_with_copies());
  SimExecutor reused;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    const Scenario& s = runs[i];
    hms::PlacementMap fresh_end = s.start;
    const SimReport fresh = SimExecutor{}.run(s.graph, s.machine, fresh_end,
                                              s.schedule, s.options);
    hms::PlacementMap reused_end = s.start;
    const SimReport again =
        reused.run(s.graph, s.machine, reused_end, s.schedule, s.options);
    expect_same_report(again, fresh);
    EXPECT_EQ(reused_end, fresh_end);
  }
}

}  // namespace
}  // namespace tahoe::task
