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
// iteration. A builder given the previous iteration's graph compares each
// task against it as it arrives; when the whole declaration repeats it
// exactly, build() hands the previous graph back without deriving it
// again.
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
  /// A builder that checks the declaration against `previous`, the graph
  /// of the iteration before. While the tasks repeat it, they are compared
  /// and counted but not stored; the first task that differs takes over
  /// previous's task list up to that point. A graph with no groups is no
  /// previous graph at all.
  explicit GraphBuilder(TaskGraph previous);

  /// Open a new group; subsequent add_task calls attach to it.
  GroupId begin_group(std::string name);

  /// Append a task to the current group (a group must be open). The task's
  /// id and group fields are assigned by the builder. Returns the id.
  TaskId add_task(Task t);

  /// Whether the declaration so far equals the previous graph exactly: the
  /// same groups (name and boundaries) and as many tasks, each equal in
  /// label, compute_seconds, request and every access's object, chunk,
  /// mode and traffic. Doubles compare bit for bit, so 0.0 and -0.0
  /// differ. `work` is not compared: a kept graph keeps previous's kernels.
  bool repeats_previous() const;

  /// Finalize: derive the dependences, or return the previous graph as it
  /// is when the declaration repeats it. The builder must not be reused
  /// afterwards. Deriving reuses this thread's derive workspace, so a warm
  /// build allocates only the graph's arrays.
  TaskGraph build();

  std::size_t num_tasks() const noexcept {
    return previous_ ? matched_ : graph_.tasks_.size();
  }

 private:
  /// Stop comparing: the previous graph's first `matched_` tasks become
  /// the start of this graph's task list.
  void take_previous_tasks();
  /// Derive edges, predecessor counts and unit_refs_ for every task.
  void derive();

  TaskGraph graph_;
  bool group_open_ = false;
  /// The graph being repeated, while every task so far equals its own.
  std::optional<TaskGraph> previous_;
  /// Tasks declared so far while previous_ is held (none stored).
  std::size_t matched_ = 0;
};

}  // namespace tahoe::task
