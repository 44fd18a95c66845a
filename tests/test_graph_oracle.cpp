// Property-based stress test for TaskGraph dependence derivation: hundreds
// of randomized access sets checked against a brute-force RAW/WAR/WAW
// oracle. The builder may dedup or transitively reduce edges, so the
// contract is ordering, not edge identity: every conflicting task pair must
// be ordered by a directed path, and every edge must be justified by a
// direct conflict. Edge order is observable too (it fixes the simulator's
// ready order), so a last check compares every successor list, in order,
// with the unit-keyed ordered-map derivation the builder's per-object
// state replaced.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "graph_queries.hpp"
#include "task/graph.hpp"

namespace tahoe {
namespace {

/// Do two declared accesses touch overlapping storage? A whole-object
/// access (kAllChunks) overlaps every chunk of that object.
bool overlaps(const task::DataAccess& a, const task::DataAccess& b) {
  if (a.object != b.object) return false;
  return a.chunk == task::kAllChunks || b.chunk == task::kAllChunks ||
         a.chunk == b.chunk;
}

/// OpenMP-style conflict: overlapping storage and at least one writer.
bool conflicts(const task::Task& x, const task::Task& y) {
  for (const task::DataAccess& a : x.accesses) {
    for (const task::DataAccess& b : y.accesses) {
      if (overlaps(a, b) && (a.writes() || b.writes())) return true;
    }
  }
  return false;
}

/// Does any task of group `grp` access storage overlapping the unit?
/// Brute force over the declared access sets.
bool group_touches(const task::TaskGraph& g, task::GroupId grp,
                   hms::ObjectId obj, std::size_t chunk) {
  task::DataAccess unit;
  unit.object = obj;
  unit.chunk = chunk;
  const task::Group& group = g.group(grp);
  for (task::TaskId t = group.first_task; t < group.last_task; ++t) {
    for (const task::DataAccess& a : g.task(t).accesses) {
      if (overlaps(a, unit)) return true;
    }
  }
  return false;
}

/// Reachability matrix via forward BFS from every task. Graphs here are
/// small (tens of tasks), so the O(T * E) cost is negligible.
std::vector<std::vector<bool>> reachability(const task::TaskGraph& g) {
  const std::size_t n = g.num_tasks();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (task::TaskId s = 0; s < n; ++s) {
    std::deque<task::TaskId> frontier{s};
    while (!frontier.empty()) {
      const task::TaskId t = frontier.front();
      frontier.pop_front();
      for (const task::TaskId next : g.successors(t)) {
        if (!reach[s][next]) {
          reach[s][next] = true;
          frontier.push_back(next);
        }
      }
    }
  }
  return reach;
}

/// Random graph with chunked, whole-object, and mixed accesses. Every
/// other graph also uses sparse and huge chunk indices, which a table
/// indexed by chunk could not hold.
task::TaskGraph random_graph(Rng& rng) {
  const std::size_t groups = 1 + rng.next_below(5);
  const std::size_t objects = 1 + rng.next_below(4);
  std::vector<std::size_t> chunks(1 + rng.next_below(3));
  for (std::size_t c = 0; c < chunks.size(); ++c) chunks[c] = c;
  if (rng.next_below(2) == 0) {
    chunks.insert(chunks.end(), {1'000'000'000, task::kAllChunks - 1});
  }
  task::GraphBuilder gb;
  for (std::size_t g = 0; g < groups; ++g) {
    gb.begin_group("g" + std::to_string(g));
    const std::size_t tasks = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < tasks; ++i) {
      task::Task t;
      const std::size_t n_acc = 1 + rng.next_below(3);
      for (std::size_t a = 0; a < n_acc; ++a) {
        task::DataAccess acc;
        acc.object = static_cast<hms::ObjectId>(rng.next_below(objects));
        // 1-in-4 accesses cover the whole object, the rest one chunk.
        acc.chunk = rng.next_below(4) == 0
                        ? task::kAllChunks
                        : chunks[rng.next_below(chunks.size())];
        acc.mode = static_cast<task::AccessMode>(rng.next_below(3));
        acc.traffic.loads = 1 + rng.next_below(100);
        acc.traffic.footprint = 64 * (1 + rng.next_below(100));
        t.accesses.push_back(acc);
      }
      gb.add_task(std::move(t));
    }
  }
  return gb.build();
}

/// Successor lists as the unit-keyed derivation makes them: one ordered
/// map from (object, chunk) to that unit's last writer and readers since.
/// A whole-object access applies every tracked chunk of the object in
/// ascending chunk order, then the whole-object unit; a chunk access
/// consults the whole-object unit without registering in it, then applies
/// its own.
std::vector<std::vector<task::TaskId>> unit_map_successors(
    const task::TaskGraph& g) {
  struct UnitState {
    std::optional<task::TaskId> last_writer;
    std::vector<task::TaskId> readers_since_write;
  };
  using Unit = std::pair<hms::ObjectId, std::size_t>;
  std::map<Unit, UnitState> units;
  std::vector<std::vector<task::TaskId>> succs(g.num_tasks());
  std::vector<task::TaskId> last_target_of(g.num_tasks(),
                                           static_cast<task::TaskId>(-1));
  const auto add_edge = [&](task::TaskId from, task::TaskId to) {
    if (from == to || last_target_of[from] == to) return;
    last_target_of[from] = to;
    succs[from].push_back(to);
  };
  const auto consult = [&](const UnitState& st, task::TaskId tid,
                           bool writes) {
    if (writes) {
      for (const task::TaskId r : st.readers_since_write) add_edge(r, tid);
      if (st.readers_since_write.empty() && st.last_writer) {
        add_edge(*st.last_writer, tid);
      }
    } else if (st.last_writer) {
      add_edge(*st.last_writer, tid);
    }
  };
  const auto apply = [&](const Unit& unit, task::TaskId tid, bool writes) {
    UnitState& st = units[unit];
    consult(st, tid, writes);
    if (writes) {
      st.last_writer = tid;
      st.readers_since_write.clear();
    } else {
      st.readers_since_write.push_back(tid);
    }
  };
  for (const task::Task& t : g.tasks()) {
    for (const task::DataAccess& a : t.accesses) {
      if (a.chunk == task::kAllChunks) {
        for (auto it = units.lower_bound(Unit{a.object, 0});
             it != units.end() && it->first.first == a.object; ++it) {
          if (it->first.second != task::kAllChunks) {
            apply(it->first, t.id, a.writes());
          }
        }
      } else if (const auto it = units.find(Unit{a.object, task::kAllChunks});
                 it != units.end()) {
        consult(it->second, t.id, a.writes());
      }
      apply(Unit{a.object, a.chunk}, t.id, a.writes());
    }
  }
  return succs;
}

TEST(GraphOracle, ConflictingPairsAreAlwaysOrdered) {
  Rng rng(0xdead5eed);
  for (int trial = 0; trial < 300; ++trial) {
    const task::TaskGraph g = random_graph(rng);
    const auto reach = reachability(g);
    for (task::TaskId i = 0; i < g.num_tasks(); ++i) {
      for (task::TaskId j = i + 1; j < g.num_tasks(); ++j) {
        if (conflicts(g.task(i), g.task(j))) {
          ASSERT_TRUE(reach[i][j])
              << "trial " << trial << ": conflicting tasks " << i << " -> "
              << j << " not ordered by any path";
        }
      }
    }
  }
}

TEST(GraphOracle, EveryEdgeIsJustifiedByADirectConflict) {
  Rng rng(0xfeedbead);
  for (int trial = 0; trial < 300; ++trial) {
    const task::TaskGraph g = random_graph(rng);
    for (task::TaskId i = 0; i < g.num_tasks(); ++i) {
      for (const task::TaskId j : g.successors(i)) {
        ASSERT_LT(i, j) << "trial " << trial << ": edge against program order";
        ASSERT_TRUE(conflicts(g.task(i), g.task(j)))
            << "trial " << trial << ": spurious edge " << i << " -> " << j;
      }
    }
    ASSERT_TRUE(task::edges_respect_program_order(g)) << "trial " << trial;
  }
}

TEST(GraphOracle, PredecessorCountsMatchInEdges) {
  Rng rng(0xabcdef01);
  for (int trial = 0; trial < 200; ++trial) {
    const task::TaskGraph g = random_graph(rng);
    std::vector<std::uint32_t> in_degree(g.num_tasks(), 0);
    for (task::TaskId i = 0; i < g.num_tasks(); ++i) {
      for (const task::TaskId j : g.successors(i)) ++in_degree[j];
    }
    for (task::TaskId t = 0; t < g.num_tasks(); ++t) {
      ASSERT_EQ(in_degree[t], g.num_predecessors(t))
          << "trial " << trial << " task " << t;
    }
  }
}

TEST(GraphOracle, GroupReferenceIndexMatchesAccessSets) {
  Rng rng(0x5eedf00d);
  for (int trial = 0; trial < 200; ++trial) {
    const task::TaskGraph g = random_graph(rng);
    for (const auto& [obj, chunk] : task::referenced_units(g)) {
      const std::vector<task::GroupId> via_index =
          g.groups_referencing(obj, chunk);
      for (task::GroupId grp = 0; grp < g.num_groups(); ++grp) {
        const bool listed = std::find(via_index.begin(), via_index.end(),
                                      grp) != via_index.end();
        EXPECT_EQ(listed, group_touches(g, grp, obj, chunk))
            << "trial " << trial << " unit (" << obj << ", " << chunk
            << ") group " << grp;
      }
    }
  }
}

TEST(GraphOracle, SuccessorListsMatchTheUnitMapDerivationInOrder) {
  Rng rng(0x0dd5eed5);
  for (int trial = 0; trial < 300; ++trial) {
    const task::TaskGraph g = random_graph(rng);
    const auto expected = unit_map_successors(g);
    for (task::TaskId i = 0; i < g.num_tasks(); ++i) {
      ASSERT_EQ(task::successor_list(g, i), expected[i])
          << "trial " << trial << " task " << i;
    }
  }
}

}  // namespace
}  // namespace tahoe
