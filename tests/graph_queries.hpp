// Test-side queries over a TaskGraph's public API (successors, tasks,
// groups_referencing): what the graph, property and oracle tests ask of a
// built graph that the runtime never does, down to whether two graphs are
// the same graph (graph_difference).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <string>
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

/// Equal bit for bit, so 0.0 and -0.0 differ.
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Equal as declared: id, group, label, compute_seconds, request, and each
/// access's object, chunk, mode and every traffic field, doubles bit for
/// bit. `work` is not compared.
inline bool same_declared_task(const Task& a, const Task& b) {
  const auto same_access = [](const DataAccess& x, const DataAccess& y) {
    const memsim::ObjectTraffic& p = x.traffic;
    const memsim::ObjectTraffic& q = y.traffic;
    return x.object == y.object && x.chunk == y.chunk && x.mode == y.mode &&
           p.loads == q.loads && p.stores == q.stores &&
           p.footprint == q.footprint && same_bits(p.dep_frac, q.dep_frac) &&
           same_bits(p.locality, q.locality) &&
           same_bits(p.spatial, q.spatial);
  };
  return a.id == b.id && a.group == b.group && a.label == b.label &&
         same_bits(a.compute_seconds, b.compute_seconds) &&
         a.request == b.request &&
         std::ranges::equal(a.accesses, b.accesses, same_access);
}

/// The first way `a` and `b` differ, or "" when they are the same graph:
/// the same groups, each task the same as declared (same_declared_task)
/// with the same successors and predecessor count, and every referenced
/// unit referenced by the same groups.
inline std::string graph_difference(const TaskGraph& a, const TaskGraph& b) {
  if (a.groups() != b.groups()) return "groups";
  if (a.num_tasks() != b.num_tasks()) return "task count";
  for (TaskId id = 0; id < a.num_tasks(); ++id) {
    const std::string which = " of task " + std::to_string(id);
    if (!same_declared_task(a.task(id), b.task(id))) {
      return "declaration" + which;
    }
    if (successor_list(a, id) != successor_list(b, id)) {
      return "successors" + which;
    }
    if (a.num_predecessors(id) != b.num_predecessors(id)) {
      return "predecessor count" + which;
    }
  }
  for (const auto& [obj, chunk] : referenced_units(a)) {
    if (a.groups_referencing(obj, chunk) != b.groups_referencing(obj, chunk)) {
      return "groups referencing object " + std::to_string(obj) + " chunk " +
             std::to_string(chunk);
    }
  }
  return "";
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
