// Cholesky and heat: the workloads outside the canonical seven, plus
// structural checks shared by every registered workload, among them that
// a build keeping the previous graph keeps the graph a full declaration
// derives.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "graph_queries.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/common.hpp"
#include "workloads/nekproxy.hpp"
#include "workloads/synthetic.hpp"

namespace tahoe {
namespace {

core::RuntimeConfig config(hms::Backing backing) {
  core::RuntimeConfig c;
  c.machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);
  c.backing = backing;
  return c;
}

TEST(Cholesky, FactorizationVerifiesUnderRealExecution) {
  workloads::CholeskyApp app(
      workloads::CholeskyApp::config_for(workloads::Scale::Test));
  core::Runtime rt(config(hms::Backing::Real));
  EXPECT_TRUE(rt.run_real_report(app, /*schedule=*/{}, 3).verified);
}

TEST(Cholesky, FactoryConstructsIt) {
  auto app = workloads::make_workload("cholesky", workloads::Scale::Test);
  EXPECT_EQ(app->name(), "cholesky");
  EXPECT_GE(app->iterations(), 1u);
}

TEST(Cholesky, TriangularDagShrinksAcrossGroups) {
  auto app = workloads::make_workload("cholesky", workloads::Scale::Test);
  hms::ObjectRegistry reg({64 * kMiB, 4 * kGiB}, hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  app->setup(reg, chunking);
  task::GraphBuilder gb;
  app->build_iteration(gb, 0);
  const task::TaskGraph g = gb.build();
  // Update groups must shrink: 3, 2, 1 trailing columns for 4 blocks.
  std::vector<std::size_t> update_sizes;
  for (task::GroupId gi = 0; gi < g.num_groups(); ++gi) {
    if (g.group(gi).name == "chol_update") {
      update_sizes.push_back(g.group(gi).size());
    }
  }
  ASSERT_GE(update_sizes.size(), 2u);
  for (std::size_t i = 1; i < update_sizes.size(); ++i) {
    EXPECT_LT(update_sizes[i], update_sizes[i - 1]);
  }
}

TEST(Cholesky, TahoeBeatsNvmOnly) {
  core::Runtime rt(config(hms::Backing::Virtual));
  auto a1 = workloads::make_workload("cholesky", workloads::Scale::Test);
  const core::RunReport nvm = rt.run_static(*a1, memsim::kNvm);
  auto a2 = workloads::make_workload("cholesky", workloads::Scale::Test);
  core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants());
  const core::RunReport tahoe = rt.run(*a2, policy);
  EXPECT_LE(tahoe.steady_iteration_seconds(),
            nvm.steady_iteration_seconds() * 1.02);
}

/// The iterations whose build kept the previous graph, when every
/// iteration of `app` is built as the simulated runtime builds it: each
/// builder is given the graph the one before built. Each iteration's graph
/// must be the graph a fresh builder derives from that iteration's full
/// declaration.
std::vector<std::size_t> kept_iterations(core::Application& app) {
  hms::ObjectRegistry reg({64 * kMiB, 256 * kGiB}, hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  chunking.dram_capacity = 64 * kMiB;
  app.setup(reg, chunking);
  std::vector<std::size_t> kept;
  task::TaskGraph chained;
  for (std::size_t iter = 0; iter < app.iterations(); ++iter) {
    task::GraphBuilder next(std::move(chained));
    app.build_iteration(next, iter);
    if (next.repeats_previous()) kept.push_back(iter);
    chained = next.build();
    task::GraphBuilder fresh;
    app.build_iteration(fresh, iter);
    EXPECT_EQ(task::graph_difference(chained, fresh.build()), "")
        << app.name() << " iteration " << iter;
  }
  return kept;
}

/// Iterations 1 to `iterations` - 1, less `drift_at` (0: no drift).
std::vector<std::size_t> repeating_iterations(std::size_t iterations,
                                              std::size_t drift_at = 0) {
  std::vector<std::size_t> out;
  for (std::size_t iter = 1; iter < iterations; ++iter) {
    if (iter != drift_at) out.push_back(iter);
  }
  return out;
}

TEST(ChainedBuild, SyntheticAndDriftingAppsKeepExactlyWhatRepeats) {
  // The drifting apps declare their drift iteration in full and keep
  // every other one after the first.
  std::vector<std::unique_ptr<core::Application>> apps;
  apps.push_back(
      std::make_unique<workloads::StreamApp>(workloads::StreamApp::Config{}));
  apps.push_back(
      std::make_unique<workloads::ChaseApp>(workloads::ChaseApp::Config{}));
  workloads::DriftApp::Config drift;
  drift.drift_at = 5;
  apps.push_back(std::make_unique<workloads::DriftApp>(drift));
  for (const workloads::Scale scale :
       {workloads::Scale::Test, workloads::Scale::Bench}) {
    workloads::NekProxyApp::Config nek =
        workloads::NekProxyApp::config_for(scale);
    nek.drift_at = 5;
    apps.push_back(std::make_unique<workloads::NekProxyApp>(nek));
  }
  for (const std::unique_ptr<core::Application>& app : apps) {
    const bool drifts = app->name() == "drift" || app->name() == "nekproxy";
    EXPECT_EQ(kept_iterations(*app),
              repeating_iterations(app->iterations(), drifts ? 5 : 0))
        << app->name();
  }
}

class RegisteredWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(RegisteredWorkload, GroupNamesStableAcrossIterations) {
  // The adaptivity machinery assumes the per-iteration group sequence is
  // stable; every workload must rebuild the same group names in order.
  auto app = workloads::make_workload(GetParam(), workloads::Scale::Test);
  hms::ObjectRegistry reg({64 * kMiB, 4 * kGiB}, hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  app->setup(reg, chunking);

  std::vector<std::string> first;
  for (std::size_t iter = 0; iter < 2; ++iter) {
    task::GraphBuilder gb;
    app->build_iteration(gb, iter);
    const task::TaskGraph g = gb.build();
    std::vector<std::string> names;
    for (task::GroupId gi = 0; gi < g.num_groups(); ++gi) {
      names.push_back(g.group(gi).name);
    }
    if (iter == 0) {
      first = names;
    } else {
      EXPECT_EQ(names, first);
    }
  }
}

TEST_P(RegisteredWorkload, IdenticalRebuildRepeatsThePreviousGraph) {
  // Each iteration re-declares the same graph, so every build after the
  // first keeps the previous graph, which is the graph a full declaration
  // derives, at both scales.
  for (const workloads::Scale scale :
       {workloads::Scale::Test, workloads::Scale::Bench}) {
    auto app = workloads::make_workload(GetParam(), scale);
    EXPECT_EQ(kept_iterations(*app), repeating_iterations(app->iterations()));
  }
}

TEST_P(RegisteredWorkload, DeclaredTrafficIsSane) {
  auto app = workloads::make_workload(GetParam(), workloads::Scale::Test);
  hms::ObjectRegistry reg({64 * kMiB, 4 * kGiB}, hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  app->setup(reg, chunking);
  task::GraphBuilder gb;
  app->build_iteration(gb, 0);
  const task::TaskGraph g = gb.build();
  for (const task::Task& t : g.tasks()) {
    EXPECT_GE(t.compute_seconds, 0.0);
    EXPECT_FALSE(t.accesses.empty()) << t.label;
    for (const task::DataAccess& a : t.accesses) {
      EXPECT_NE(a.object, hms::kInvalidObject);
      EXPECT_GT(a.traffic.accesses(), 0u) << t.label;
      EXPECT_GT(a.traffic.footprint, 0u) << t.label;
      EXPECT_GE(a.traffic.dep_frac, 0.0);
      EXPECT_LE(a.traffic.dep_frac, 1.0);
      EXPECT_GE(a.traffic.locality, 0.0);
      EXPECT_LE(a.traffic.locality, 1.0);
      EXPECT_GE(a.traffic.spatial, 0.0);
      EXPECT_LE(a.traffic.spatial, 1.0);
      // Reads imply loads, writes imply stores.
      if (a.mode == task::AccessMode::Read) {
        EXPECT_EQ(a.traffic.stores, 0u);
      }
      if (a.mode == task::AccessMode::Write) {
        EXPECT_GT(a.traffic.stores, 0u) << t.label;
      }
      // Every declared access must refer to a live registry object/chunk.
      const hms::DataObject& obj = reg.get(a.object);
      if (a.chunk != task::kAllChunks) {
        EXPECT_LT(a.chunk, obj.num_chunks()) << t.label;
      }
    }
  }
}

TEST_P(RegisteredWorkload, ObjectsCoverDeclaredFootprints) {
  auto app = workloads::make_workload(GetParam(), workloads::Scale::Test);
  hms::ObjectRegistry reg({64 * kMiB, 4 * kGiB}, hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  app->setup(reg, chunking);
  task::GraphBuilder gb;
  app->build_iteration(gb, 0);
  const task::TaskGraph g = gb.build();
  for (const task::Task& t : g.tasks()) {
    for (const task::DataAccess& a : t.accesses) {
      const hms::DataObject& obj = reg.get(a.object);
      const std::uint64_t unit_bytes =
          (a.chunk == task::kAllChunks) ? obj.bytes
                                        : obj.chunk(a.chunk).bytes;
      EXPECT_LE(a.traffic.footprint, obj.bytes) << t.label;
      // Per-chunk accesses should not claim more than ~the chunk itself
      // (whole-object footprints are allowed for gathers).
      if (a.chunk != task::kAllChunks &&
          a.traffic.footprint > obj.chunk(a.chunk).bytes) {
        EXPECT_LE(a.traffic.footprint, obj.bytes) << t.label;
      }
      (void)unit_bytes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, RegisteredWorkload,
    ::testing::Values("cg", "ft", "bt", "lu", "sp", "mg", "nekproxy", "heat",
                      "cholesky"),
    [](const auto& pinfo) { return pinfo.param; });

}  // namespace
}  // namespace tahoe
