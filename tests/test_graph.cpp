// Task graph construction: dependence derivation and reference queries.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph_queries.hpp"
#include "task/graph.hpp"

namespace tahoe::task {
namespace {

DataAccess acc(hms::ObjectId obj, AccessMode mode,
               std::size_t chunk = kAllChunks) {
  DataAccess a;
  a.object = obj;
  a.chunk = chunk;
  a.mode = mode;
  a.traffic.loads = 1;
  a.traffic.footprint = 64;
  return a;
}

Task task(std::vector<DataAccess> accesses) {
  Task t;
  t.accesses = std::move(accesses);
  return t;
}

bool has_edge(const TaskGraph& g, TaskId from, TaskId to) {
  for (TaskId s : g.successors(from)) {
    if (s == to) return true;
  }
  return false;
}

TEST(Graph, RawDependence) {
  GraphBuilder gb;
  gb.begin_group("g");
  const TaskId w = gb.add_task(task({acc(1, AccessMode::Write)}));
  const TaskId r = gb.add_task(task({acc(1, AccessMode::Read)}));
  const TaskGraph g = gb.build();
  EXPECT_TRUE(has_edge(g, w, r));
  EXPECT_EQ(g.num_predecessors(r), 1u);
  EXPECT_EQ(g.num_predecessors(w), 0u);
}

TEST(Graph, WarDependence) {
  GraphBuilder gb;
  gb.begin_group("g");
  const TaskId r = gb.add_task(task({acc(1, AccessMode::Read)}));
  const TaskId w = gb.add_task(task({acc(1, AccessMode::Write)}));
  const TaskGraph g = gb.build();
  EXPECT_TRUE(has_edge(g, r, w));
}

TEST(Graph, WawDependence) {
  GraphBuilder gb;
  gb.begin_group("g");
  const TaskId w1 = gb.add_task(task({acc(1, AccessMode::Write)}));
  const TaskId w2 = gb.add_task(task({acc(1, AccessMode::Write)}));
  const TaskGraph g = gb.build();
  EXPECT_TRUE(has_edge(g, w1, w2));
}

TEST(Graph, ParallelReadersShareNoEdges) {
  GraphBuilder gb;
  gb.begin_group("g");
  const TaskId w = gb.add_task(task({acc(1, AccessMode::Write)}));
  const TaskId r1 = gb.add_task(task({acc(1, AccessMode::Read)}));
  const TaskId r2 = gb.add_task(task({acc(1, AccessMode::Read)}));
  const TaskId r3 = gb.add_task(task({acc(1, AccessMode::Read)}));
  const TaskGraph g = gb.build();
  EXPECT_FALSE(has_edge(g, r1, r2));
  EXPECT_FALSE(has_edge(g, r2, r3));
  EXPECT_TRUE(has_edge(g, w, r1));
  EXPECT_TRUE(has_edge(g, w, r3));
}

TEST(Graph, WriterAfterReadersWaitsForAll) {
  GraphBuilder gb;
  gb.begin_group("g");
  gb.add_task(task({acc(1, AccessMode::Write)}));
  const TaskId r1 = gb.add_task(task({acc(1, AccessMode::Read)}));
  const TaskId r2 = gb.add_task(task({acc(1, AccessMode::Read)}));
  const TaskId w2 = gb.add_task(task({acc(1, AccessMode::Write)}));
  const TaskGraph g = gb.build();
  EXPECT_TRUE(has_edge(g, r1, w2));
  EXPECT_TRUE(has_edge(g, r2, w2));
}

TEST(Graph, IndependentObjectsNoEdges) {
  GraphBuilder gb;
  gb.begin_group("g");
  const TaskId t1 = gb.add_task(task({acc(1, AccessMode::Write)}));
  const TaskId t2 = gb.add_task(task({acc(2, AccessMode::Write)}));
  const TaskGraph g = gb.build();
  EXPECT_FALSE(has_edge(g, t1, t2));
  EXPECT_EQ(num_edges(g), 0u);
}

TEST(Graph, ChunkGranularDependences) {
  GraphBuilder gb;
  gb.begin_group("g");
  const TaskId w0 = gb.add_task(task({acc(1, AccessMode::Write, 0)}));
  const TaskId w1 = gb.add_task(task({acc(1, AccessMode::Write, 1)}));
  const TaskId r0 = gb.add_task(task({acc(1, AccessMode::Read, 0)}));
  const TaskGraph g = gb.build();
  EXPECT_FALSE(has_edge(g, w0, w1));  // different chunks
  EXPECT_TRUE(has_edge(g, w0, r0));
  EXPECT_FALSE(has_edge(g, w1, r0));
}

TEST(Graph, WholeObjectConflictsWithChunks) {
  GraphBuilder gb;
  gb.begin_group("g");
  const TaskId w0 = gb.add_task(task({acc(1, AccessMode::Write, 0)}));
  const TaskId w1 = gb.add_task(task({acc(1, AccessMode::Write, 1)}));
  const TaskId all = gb.add_task(task({acc(1, AccessMode::Read)}));
  const TaskId w2 = gb.add_task(task({acc(1, AccessMode::Write, 1)}));
  const TaskGraph g = gb.build();
  EXPECT_TRUE(has_edge(g, w0, all));
  EXPECT_TRUE(has_edge(g, w1, all));
  EXPECT_TRUE(has_edge(g, all, w2));  // WAR through the whole-object read
}

TEST(Graph, GroupsDelimitTasks) {
  GraphBuilder gb;
  gb.begin_group("a");
  gb.add_task(task({acc(1, AccessMode::Read)}));
  gb.add_task(task({acc(1, AccessMode::Read)}));
  gb.begin_group("b");
  gb.add_task(task({acc(2, AccessMode::Read)}));
  const TaskGraph g = gb.build();
  ASSERT_EQ(g.num_groups(), 2u);
  EXPECT_EQ(g.group(0).name, "a");
  EXPECT_EQ(g.group(0).size(), 2u);
  EXPECT_EQ(g.group(1).size(), 1u);
  EXPECT_EQ(g.task(2).group, 1u);
}

TEST(Graph, ReferenceQueries) {
  GraphBuilder gb;
  gb.begin_group("g0");
  gb.add_task(task({acc(1, AccessMode::Write)}));
  gb.begin_group("g1");
  gb.add_task(task({acc(2, AccessMode::Write)}));
  gb.begin_group("g2");
  gb.add_task(task({acc(1, AccessMode::Read)}));
  const TaskGraph g = gb.build();

  EXPECT_EQ(g.groups_referencing(1, kAllChunks),
            (std::vector<GroupId>{0, 2}));
  EXPECT_TRUE(group_references(g, 1, 1, kAllChunks) == false);
  EXPECT_TRUE(group_references(g, 2, 1, kAllChunks));
  ASSERT_TRUE(g.last_reference_before(1, kAllChunks, 2).has_value());
  EXPECT_EQ(*g.last_reference_before(1, kAllChunks, 2), 0u);
  EXPECT_FALSE(g.last_reference_before(2, kAllChunks, 1).has_value());
}

TEST(Graph, EdgesRespectProgramOrder) {
  GraphBuilder gb;
  gb.begin_group("g");
  for (int i = 0; i < 20; ++i) {
    gb.add_task(task({acc(static_cast<hms::ObjectId>(i % 3),
                          i % 2 == 0 ? AccessMode::Write : AccessMode::Read)}));
  }
  const TaskGraph g = gb.build();
  EXPECT_TRUE(edges_respect_program_order(g));
}

TEST(Graph, ContractViolations) {
  GraphBuilder gb;
  EXPECT_THROW(gb.add_task(task({acc(1, AccessMode::Read)})), ContractError);
  GraphBuilder gb2;
  EXPECT_THROW(gb2.build(), ContractError);
}

// ---- repeated declarations -------------------------------------------

/// A declaration as an application makes it: groups in order, each with
/// its tasks.
using Declaration = std::vector<std::pair<std::string, std::vector<Task>>>;

/// Every declared field set away from its default, with dependences across
/// both groups and a whole-object access next to chunk accesses.
Declaration base_declaration() {
  auto with = [](std::string label, double compute,
                 std::vector<DataAccess> accesses) {
    Task t = task(std::move(accesses));
    t.label = std::move(label);
    t.compute_seconds = compute;
    t.request = 7;
    for (DataAccess& a : t.accesses) {
      a.traffic.stores = a.writes() ? 3 : 0;
      a.traffic.dep_frac = 0.25;
      a.traffic.locality = 0.5;
      a.traffic.spatial = 0.75;
    }
    return t;
  };
  return {{"produce",
           {with("w0", 1e-3, {acc(1, AccessMode::Write, 0)}),
            with("w1", 0.0, {acc(1, AccessMode::Write, 1)})}},
          {"consume",
           {with("r", 2e-3, {acc(1, AccessMode::Read),
                             acc(2, AccessMode::ReadWrite)}),
            with("w2", 3e-3, {acc(2, AccessMode::Write, 0)})}}};
}

void declare(GraphBuilder& gb, const Declaration& d) {
  for (const auto& [name, tasks] : d) {
    gb.begin_group(name);
    for (const Task& t : tasks) gb.add_task(t);
  }
}

TaskGraph built(const Declaration& d) {
  GraphBuilder gb;
  declare(gb, d);
  return gb.build();
}

TEST(GraphRepeat, KeptGraphIsThePreviousGraphKernelAndAll) {
  // The application's word is taken as it is: the kept graph is the
  // previous one, kernels included, with nothing declared or derived.
  Declaration with_kernel = base_declaration();
  with_kernel[0].second[0].work = [] {};
  GraphBuilder gb(built(with_kernel));
  ASSERT_TRUE(gb.keep_previous());
  EXPECT_TRUE(gb.repeats_previous());
  const TaskGraph g = gb.build();
  EXPECT_TRUE(static_cast<bool>(g.task(0).work));
  EXPECT_EQ(graph_difference(g, built(base_declaration())), "");
  EXPECT_GT(num_edges(g), 0u);
}

TEST(GraphRepeat, NoPreviousGraphNeverRepeats) {
  // With no previous graph, or an empty one, keep_previous() takes nothing
  // and the builder declares as usual.
  GraphBuilder fresh;
  EXPECT_FALSE(fresh.keep_previous());
  declare(fresh, base_declaration());
  EXPECT_FALSE(fresh.repeats_previous());
  GraphBuilder from_empty{TaskGraph{}};
  EXPECT_FALSE(from_empty.keep_previous());
  declare(from_empty, base_declaration());
  EXPECT_FALSE(from_empty.repeats_previous());
  EXPECT_EQ(graph_difference(from_empty.build(), built(base_declaration())),
            "");
}

TEST(GraphRepeat, PreconditionsHoldWhileRepeating) {
  // keep_previous() opens a declaration or has no place in it.
  GraphBuilder declaring(built(base_declaration()));
  declaring.begin_group("produce");
  EXPECT_THROW(declaring.keep_previous(), ContractError);
  // A kept graph takes no further groups or tasks.
  GraphBuilder kept(built(base_declaration()));
  ASSERT_TRUE(kept.keep_previous());
  EXPECT_THROW(kept.begin_group("more"), ContractError);
  EXPECT_THROW(kept.add_task(base_declaration()[0].second[0]), ContractError);
  EXPECT_EQ(kept.build().num_tasks(), 4u);
  // A builder that holds a previous graph but declares checks each task.
  Task bad = base_declaration()[0].second[0];
  bad.compute_seconds = -1.0;
  EXPECT_THROW(declaring.add_task(bad), ContractError);
  Task invalid = base_declaration()[0].second[0];
  invalid.accesses[0].object = hms::kInvalidObject;
  EXPECT_THROW(declaring.add_task(invalid), ContractError);
}

// ---- builds on one thread ------------------------------------------------

/// More groups, objects and chunks than base_declaration, with whole-object
/// accesses among the chunk accesses, so a build of it leaves more derive
/// state behind than a base build needs.
Declaration wide_declaration() {
  Declaration d;
  for (int g = 0; g < 6; ++g) {
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < 10; ++i) {
      tasks.push_back(task(
          {acc(static_cast<hms::ObjectId>(3 + i % 3), AccessMode::ReadWrite,
               i % 4),
           acc(9, i % 2 == 0 ? AccessMode::Write : AccessMode::Read),
           acc(1, AccessMode::Read, 40 + i % 5)}));
    }
    d.emplace_back("wide" + std::to_string(g), std::move(tasks));
  }
  return d;
}

TEST(GraphBuild, BuildAfterADifferentBuildMatchesAFreshThread) {
  // A new thread has built nothing before, so its workspace starts empty.
  const auto on_new_thread = [](const Declaration& d) {
    TaskGraph g;
    std::thread([&] { g = built(d); }).join();
    return g;
  };
  const TaskGraph base = on_new_thread(base_declaration());
  const TaskGraph wide = on_new_thread(wide_declaration());
  (void)built(wide_declaration());
  EXPECT_EQ(graph_difference(built(base_declaration()), base), "");
  EXPECT_EQ(graph_difference(built(wide_declaration()), wide), "");
  EXPECT_EQ(graph_difference(built(base_declaration()), base), "");
}

}  // namespace
}  // namespace tahoe::task
