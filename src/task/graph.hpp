// Task graph: program-order construction, automatic dependence derivation,
// and the reference-index queries the data-placement planner needs. The
// queries only tests ask (edge count, referenced units, program order of
// every edge) are built over this public API in tests/graph_queries.hpp.
//
// Tasks are appended in program order inside *groups*. A group is the
// task-parallel analogue of the paper line's execution phase: one static
// task-creation site of the iterative application (all tasks it spawns in
// one iteration). Group boundaries are where placement decisions attach and
// where proactive migrations are triggered/awaited.
//
// Dependences are derived from declared access sets at (object, chunk)
// granularity, with OpenMP-style semantics: read-after-write,
// write-after-read, and write-after-write conflicts create edges. A
// whole-object access conflicts with every chunk of that object. The
// builder records tasks as they are added and derives every edge in
// build(), in one pass in program order. That pass keeps one dependence
// stream per unit accessed, found by hashing (object, chunk), so a sparse
// or huge chunk index costs one entry; an object's whole-object stream
// also links the object's chunk streams.
//
// A built graph is flat: every task's successors sit in one array, in the
// order derive() found them, with per-task offsets into it, and the
// unit -> groups index is one array of (object, chunk, group) references
// sorted in that order. derive()'s stream state lives in a workspace, one
// per thread, that keeps its capacity from one build to the next, so a
// build allocates the graph's own arrays and, once the workspace has seen
// a graph as large, nothing per task or per access.
//
// An iterative application re-instantiates the same graph every
// iteration. A builder given the previous iteration's graph hands it back
// from build() when the application says, through keep_previous(), that
// this iteration declares it again; nothing is declared or derived.
// Otherwise the declaration reuses the previous graph's arrays, so a
// caller that hands each graph to the next builder (a serving epoch, an
// iteration that changed its declaration) allocates them only while a
// graph outgrows every earlier one.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "task/task.hpp"

namespace tahoe::task {

struct Group {
  std::string name;
  TaskId first_task = 0;  ///< inclusive
  TaskId last_task = 0;   ///< exclusive

  std::size_t size() const noexcept { return last_task - first_task; }
  bool operator==(const Group&) const = default;
};

class TaskGraph {
 public:
  const std::vector<Task>& tasks() const noexcept { return tasks_; }
  const Task& task(TaskId id) const { return tasks_.at(id); }
  std::size_t num_tasks() const noexcept { return tasks_.size(); }

  const std::vector<Group>& groups() const noexcept { return groups_; }
  const Group& group(GroupId g) const { return groups_.at(g); }
  std::size_t num_groups() const noexcept { return groups_.size(); }

  /// The tasks that depend on `id`, ascending (the order derive() found
  /// them in, program order).
  std::span<const TaskId> successors(TaskId id) const {
    const std::size_t begin = succ_begin_.at(id);
    return std::span(succ_).subspan(begin, succ_begin_.at(id + 1) - begin);
  }
  std::uint32_t num_predecessors(TaskId id) const { return pred_count_.at(id); }

  /// Groups that reference the given unit, ascending. A chunk query also
  /// includes groups that referenced the whole object, and a whole-object
  /// query includes groups that referenced any chunk.
  std::vector<GroupId> groups_referencing(hms::ObjectId obj,
                                          std::size_t chunk) const;

  /// Latest group strictly before `g` that references the unit; nullopt if
  /// none. This bounds how early a proactive migration may be triggered.
  std::optional<GroupId> last_reference_before(hms::ObjectId obj,
                                               std::size_t chunk,
                                               GroupId g) const;

  /// One group's reference to one unit (chunk kAllChunks: the whole
  /// object), an entry of the graph's unit index.
  struct UnitRef {
    hms::ObjectId object = hms::kInvalidObject;
    std::size_t chunk = 0;
    GroupId group = 0;
    auto operator<=>(const UnitRef&) const = default;
  };

 private:
  friend class GraphBuilder;

  /// Drop every task, group and index entry, keeping the arrays' storage.
  void clear() noexcept;

  std::vector<Task> tasks_;
  std::vector<Group> groups_;
  /// Task id's successors are succ_[succ_begin_[id], succ_begin_[id + 1]).
  std::vector<TaskId> succ_;
  std::vector<std::size_t> succ_begin_;
  std::vector<std::uint32_t> pred_count_;
  /// Every (unit, group) reference once, sorted by object, chunk, group.
  std::vector<UnitRef> unit_refs_;
};

class GraphBuilder {
 public:
  GraphBuilder() = default;
  /// A builder that can keep `previous`, the graph of the iteration
  /// before (see keep_previous). A graph with no groups is no previous
  /// graph at all. If the caller declares instead, the new graph takes
  /// over the previous one's storage.
  explicit GraphBuilder(TaskGraph previous);

  /// Take the previous graph as this iteration's declaration, on the
  /// caller's word that the iteration would declare it exactly (its `work`
  /// kernels included, which a kept graph carries over). Returns whether
  /// there was a previous graph to take; on false, nothing is taken and
  /// the caller declares in full. Must come before the first begin_group,
  /// and once it returned true, begin_group and add_task are errors.
  bool keep_previous();

  /// Open a new group; subsequent add_task calls attach to it.
  GroupId begin_group(std::string name);

  /// Append a task to the current group (a group must be open). The task's
  /// id and group fields are assigned by the builder. Returns the id.
  TaskId add_task(Task t);

  /// Whether keep_previous() took the previous graph.
  bool repeats_previous() const noexcept { return kept_; }

  /// Finalize: derive the dependences, or return the kept graph as it is.
  /// The builder must not be reused afterwards. Deriving reuses this
  /// thread's derive workspace, so a warm build allocates only the graph's
  /// arrays, and not those when the previous graph lent them.
  TaskGraph build();

 private:
  /// Derive edges, predecessor counts and unit_refs_ for every task.
  void derive();

  TaskGraph graph_;
  /// The graph keep_previous() may take.
  TaskGraph previous_;
  bool kept_ = false;
};

}  // namespace tahoe::task
