// Runtime extras: pinned placement runs, preamble lookahead, Memory-Mode
// machine derivation through the runtime, and the N-tier generality of the
// substrate.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include "baselines/hwcache.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "migrate_object.hpp"
#include "workloads/sp.hpp"
#include "workloads/synthetic.hpp"

namespace tahoe {
namespace {

core::RuntimeConfig config(std::uint64_t dram = 64 * kMiB) {
  core::RuntimeConfig c;
  c.machine = memsim::machines::platform_a(
      memsim::devices::nvm_lat_multiple(memsim::devices::dram(dram), 4.0,
                                        4 * kGiB),
      dram);
  c.backing = hms::Backing::Virtual;
  return c;
}

TEST(RunPinned, SingleObjectPlacementBetweenExtremes) {
  workloads::SpApp dram_app(
      workloads::SpApp::config_for(workloads::Scale::Test, workloads::SpApp::Kind::SP));
  workloads::SpApp nvm_app(
      workloads::SpApp::config_for(workloads::Scale::Test, workloads::SpApp::Kind::SP));
  workloads::SpApp pin_app(
      workloads::SpApp::config_for(workloads::Scale::Test, workloads::SpApp::Kind::SP));
  core::Runtime rt(config());
  const double dram =
      rt.run_static(dram_app, memsim::kDram).steady_iteration_seconds();
  const double nvm =
      rt.run_static(nvm_app, memsim::kNvm).steady_iteration_seconds();
  const double lhs_pinned =
      rt.run_pinned(pin_app, {"lhs"}).steady_iteration_seconds();
  // Pinning the latency-sensitive lhs recovers part of the 4x-LAT gap.
  EXPECT_LT(lhs_pinned, nvm * 0.999);
  EXPECT_GT(lhs_pinned, dram);
}

TEST(RunPinned, PinningEverythingEqualsDramOnly) {
  workloads::StreamApp a({8 * kMiB, 4, 4});
  workloads::StreamApp b({8 * kMiB, 4, 4});
  core::Runtime rt(config());
  const double dram =
      rt.run_static(a, memsim::kDram).steady_iteration_seconds();
  const double pinned =
      rt.run_pinned(b, {"stream_src", "stream_dst"})
          .steady_iteration_seconds();
  EXPECT_NEAR(pinned, dram, dram * 1e-9);
}

TEST(RunPinned, UnknownNamesPinNothing) {
  workloads::StreamApp a({8 * kMiB, 4, 4});
  workloads::StreamApp b({8 * kMiB, 4, 4});
  core::Runtime rt(config());
  const double nvm = rt.run_static(a, memsim::kNvm).steady_iteration_seconds();
  const double pinned =
      rt.run_pinned(b, {"no_such_object"}).steady_iteration_seconds();
  EXPECT_NEAR(pinned, nvm, nvm * 1e-9);
}

TEST(CyclicPreamble, FillsNeededAtFirstReferenceGroup) {
  // Build inputs where object 2 is first referenced in group 1: its
  // preamble fill must carry needed_group = 1 (a lookahead window), while
  // an object referenced in group 0 is needed immediately.
  task::GraphBuilder gb;
  auto make_task = [](hms::ObjectId obj) {
    task::Task t;
    task::DataAccess a;
    a.object = obj;
    a.chunk = 0;
    a.mode = task::AccessMode::Read;
    a.traffic.loads = 100;
    a.traffic.footprint = 4096;
    t.accesses = {a};
    return t;
  };
  gb.begin_group("g0");
  gb.add_task(make_task(1));
  gb.begin_group("g1");
  gb.add_task(make_task(2));
  const task::TaskGraph graph = gb.build();

  const memsim::Machine m = config().machine;
  core::PlanInputs in;
  in.graph = &graph;
  in.machine = &m;
  in.objects = {core::ObjectInfo{1, "one", {4096}, 0.0},
                core::ObjectInfo{2, "two", {4096}, 0.0}};
  in.current.set(1, 0, memsim::kNvm);
  in.current.set(2, 0, memsim::kNvm);

  const auto pre = core::cyclic_preamble(
      in, {{{1, 0}, memsim::kDram}, {{2, 0}, memsim::kDram}}, {});
  ASSERT_EQ(pre.size(), 2u);
  for (const task::ScheduledCopy& c : pre) {
    EXPECT_EQ(c.trigger_group, 0u);
    EXPECT_EQ(c.needed_group, c.object == 1 ? 0u : 1u);
  }
}

TEST(MultiTier, ThreeTierMachineAndRegistryWork) {
  // The substrate is tier-count generic: DRAM + two NVM generations.
  memsim::Machine m = memsim::machines::platform_a(
      memsim::devices::optane_pm(4 * kGiB), 64 * kMiB);
  m.devices.push_back(memsim::devices::pcram(8 * kGiB));

  hms::ObjectRegistry reg({64 * kMiB, 4 * kGiB, 8 * kGiB},
                          hms::Backing::Virtual);
  const hms::ObjectId obj = reg.create("v", 16 * kMiB, 2);  // slowest tier
  EXPECT_EQ(reg.get(obj).device(), 2u);
  ASSERT_TRUE(hms::migrate_object(reg, obj, memsim::kDram));
  EXPECT_EQ(reg.get(obj).device(), memsim::kDram);

  // Simulated timing distinguishes all three tiers.
  task::GraphBuilder gb;
  gb.begin_group("g");
  task::Task t;
  task::DataAccess a;
  a.object = obj;
  a.chunk = 0;
  a.mode = task::AccessMode::Read;
  a.traffic.loads = 4 << 20;
  a.traffic.footprint = 16 * kMiB;
  t.accesses = {a};
  gb.add_task(std::move(t));
  const task::TaskGraph g = gb.build();

  task::SimExecutor ex;
  task::SimExecutor::Options opts;
  std::vector<double> times;
  for (memsim::DeviceId d = 0; d < 3; ++d) {
    hms::PlacementMap p;
    p.set(obj, 0, d);
    times.push_back(ex.run(g, m, p, {}, opts).makespan);
  }
  EXPECT_LT(times[0], times[1]);  // DRAM < Optane
  EXPECT_LT(times[1], times[2]);  // Optane < PCRAM
}

TEST(MemoryMode, RuntimeRunsOnDerivedMachine) {
  workloads::StreamApp app({32 * kMiB, 4, 4});
  core::RuntimeConfig c = config();
  c.machine = baselines::memory_mode_machine(c.machine, 64 * kMiB);
  core::Runtime rt(c);
  const core::RunReport r = rt.run_static(app, memsim::kNvm);
  EXPECT_GT(r.compute_seconds, 0.0);
}

TEST(RunReport, SteadyIterationHandlesShortRuns) {
  // Regression: runs with no post-warmup iterations must report 0.0 (the
  // old fallback silently averaged warmup noise).
  core::RunReport r;
  EXPECT_DOUBLE_EQ(r.steady_iteration_seconds(), 0.0);
  r.iteration_seconds = {5.0};
  EXPECT_DOUBLE_EQ(r.steady_iteration_seconds(), 0.0);
  r.iteration_seconds = {9.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(r.steady_iteration_seconds(3), 0.0);
  r.iteration_seconds = {9.0, 1.0, 1.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(r.steady_iteration_seconds(3), 2.0);
  EXPECT_DOUBLE_EQ(r.steady_iteration_seconds(0), 3.0);
  EXPECT_DOUBLE_EQ(r.steady_iteration_seconds(4), 3.0);
  EXPECT_DOUBLE_EQ(r.steady_iteration_seconds(5), 0.0);
}

}  // namespace
}  // namespace tahoe
