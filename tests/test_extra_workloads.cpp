// Cholesky and heat: the workloads outside the canonical seven, plus
// structural checks shared by every registered workload.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "graph_queries.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/common.hpp"

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
  // Each iteration re-declares the same graph, so a builder given the
  // previous iteration's graph keeps it and derives nothing.
  auto app = workloads::make_workload(GetParam(), workloads::Scale::Test);
  hms::ObjectRegistry reg({64 * kMiB, 4 * kGiB}, hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  app->setup(reg, chunking);
  task::GraphBuilder first;
  app->build_iteration(first, 0);
  task::TaskGraph g = first.build();
  const std::size_t edges = task::num_edges(g);
  for (std::size_t iter = 0; iter < 2; ++iter) {
    task::GraphBuilder again(std::move(g));
    app->build_iteration(again, iter);
    EXPECT_TRUE(again.repeats_previous()) << "iteration " << iter;
    g = again.build();
    EXPECT_EQ(task::num_edges(g), edges);
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
