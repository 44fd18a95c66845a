// Test-side queries over a TaskGraph's public API (successors, tasks,
// groups_referencing): what the graph, property and oracle tests ask of a
// built graph that the runtime never does.
#pragma once

#include <algorithm>
#include <cstddef>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "task/graph.hpp"

namespace tahoe::task {

/// A task's successors as a vector, for comparisons.
inline std::vector<TaskId> successor_list(const TaskGraph& g, TaskId id) {
  const std::span<const TaskId> succs = g.successors(id);
  return {succs.begin(), succs.end()};
}

/// Number of dependence edges (deduplicated per source).
inline std::size_t num_edges(const TaskGraph& g) {
  std::size_t edges = 0;
  for (TaskId id = 0; id < g.num_tasks(); ++id) {
    edges += g.successors(id).size();
  }
  return edges;
}

/// Every (object, chunk) unit some task accesses, ascending, with
/// whole-object accesses listed as (object, kAllChunks).
inline std::vector<std::pair<hms::ObjectId, std::size_t>> referenced_units(
    const TaskGraph& g) {
  std::set<std::pair<hms::ObjectId, std::size_t>> units;
  for (const Task& t : g.tasks()) {
    for (const DataAccess& a : t.accesses) units.emplace(a.object, a.chunk);
  }
  return {units.begin(), units.end()};
}

/// Does group `grp` reference the unit, in groups_referencing's sense?
inline bool group_references(const TaskGraph& g, GroupId grp,
                             hms::ObjectId obj, std::size_t chunk) {
  const std::vector<GroupId> refs = g.groups_referencing(obj, chunk);
  return std::binary_search(refs.begin(), refs.end(), grp);
}

/// True when every edge goes to a later task in program order.
inline bool edges_respect_program_order(const TaskGraph& g) {
  for (TaskId from = 0; from < g.num_tasks(); ++from) {
    for (const TaskId to : g.successors(from)) {
      if (to <= from) return false;
    }
  }
  return true;
}

}  // namespace tahoe::task
