#include "task/graph.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "common/assert.hpp"

namespace tahoe::task {
namespace {

using Unit = std::pair<hms::ObjectId, std::size_t>;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_traffic(const memsim::ObjectTraffic& a,
                  const memsim::ObjectTraffic& b) {
  return a.loads == b.loads && a.stores == b.stores &&
         a.footprint == b.footprint && same_bits(a.dep_frac, b.dep_frac) &&
         same_bits(a.locality, b.locality) && same_bits(a.spatial, b.spatial);
}

/// Equal as declared (id and group included); `work` is not compared.
bool same_task(const Task& a, const Task& b) {
  if (a.id != b.id || a.group != b.group || a.label != b.label ||
      !same_bits(a.compute_seconds, b.compute_seconds) ||
      a.request != b.request || a.accesses.size() != b.accesses.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.accesses.size(); ++i) {
    const DataAccess& x = a.accesses[i];
    const DataAccess& y = b.accesses[i];
    if (x.object != y.object || x.chunk != y.chunk || x.mode != y.mode ||
        !same_traffic(x.traffic, y.traffic)) {
      return false;
    }
  }
  return true;
}

/// Dependence state of one unit: its last writer and the readers since.
struct Stream {
  std::optional<TaskId> last_writer;
  std::vector<TaskId> readers_since_write;
  /// The unit's TaskGraph::unit_groups_ entry, found on first access.
  std::vector<GroupId>* groups = nullptr;
};

/// One object's dependence state: the whole-object stream, and a stream
/// per chunk accessed so far, sorted by chunk.
struct ObjectStreams {
  Stream whole;
  std::vector<std::pair<std::size_t, Stream>> chunks;
};

}  // namespace

std::vector<GroupId> TaskGraph::groups_referencing(hms::ObjectId obj,
                                                   std::size_t chunk) const {
  std::vector<GroupId> out;
  auto merge = [&out](const std::vector<GroupId>& gs) {
    out.insert(out.end(), gs.begin(), gs.end());
  };
  if (chunk == kAllChunks) {
    // Whole-object query: union over every unit of the object.
    for (auto it = unit_groups_.lower_bound(Unit{obj, 0});
         it != unit_groups_.end() && it->first.first == obj; ++it) {
      merge(it->second);
    }
  } else {
    if (const auto it = unit_groups_.find(Unit{obj, chunk});
        it != unit_groups_.end()) {
      merge(it->second);
    }
    if (const auto it = unit_groups_.find(Unit{obj, kAllChunks});
        it != unit_groups_.end()) {
      merge(it->second);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<GroupId> TaskGraph::last_reference_before(hms::ObjectId obj,
                                                        std::size_t chunk,
                                                        GroupId g) const {
  const std::vector<GroupId> refs = groups_referencing(obj, chunk);
  std::optional<GroupId> best;
  for (GroupId r : refs) {
    if (r < g) best = r;
  }
  return best;
}

GraphBuilder::GraphBuilder(TaskGraph previous) {
  if (previous.num_groups() > 0) previous_ = std::move(previous);
}

GroupId GraphBuilder::begin_group(std::string name) {
  const auto g = static_cast<GroupId>(graph_.groups_.size());
  Group grp;
  grp.name = std::move(name);
  grp.first_task = static_cast<TaskId>(num_tasks());
  grp.last_task = grp.first_task;
  graph_.groups_.push_back(std::move(grp));
  group_open_ = true;
  return g;
}

TaskId GraphBuilder::add_task(Task t) {
  TAHOE_REQUIRE(group_open_, "add_task outside of a group");
  const auto tid = static_cast<TaskId>(num_tasks());
  t.id = tid;
  t.group = static_cast<GroupId>(graph_.groups_.size() - 1);
  TAHOE_REQUIRE(t.compute_seconds >= 0.0, "negative compute time");
  for (const DataAccess& a : t.accesses) {
    TAHOE_REQUIRE(a.object != hms::kInvalidObject, "access to invalid object");
  }
  graph_.groups_.back().last_task = tid + 1;
  if (previous_) {
    if (tid < previous_->num_tasks() && same_task(t, previous_->task(tid))) {
      ++matched_;
      return tid;
    }
    take_previous_tasks();
  }
  graph_.tasks_.push_back(std::move(t));
  return tid;
}

bool GraphBuilder::repeats_previous() const {
  return previous_ && matched_ == previous_->num_tasks() &&
         graph_.groups_ == previous_->groups_;
}

void GraphBuilder::take_previous_tasks() {
  graph_.tasks_ = std::move(previous_->tasks_);
  graph_.tasks_.erase(graph_.tasks_.begin() +
                          static_cast<std::ptrdiff_t>(matched_),
                      graph_.tasks_.end());
  previous_.reset();
}

void GraphBuilder::derive() {
  const std::size_t n = graph_.tasks_.size();
  graph_.succs_.assign(n, {});
  graph_.pred_count_.assign(n, 0);
  // Cheap dedup: consecutive accesses of one task to sibling units would
  // otherwise create the same edge repeatedly.
  std::vector<TaskId> last_target_of(n, static_cast<TaskId>(-1));
  const auto add_edge = [&](TaskId from, TaskId to) {
    if (from == to || last_target_of[from] == to) return;
    last_target_of[from] = to;
    graph_.succs_[from].push_back(to);
    ++graph_.pred_count_[to];
  };
  // Add the edges an access gets from `st` without registering in it.
  const auto consult = [&](const Stream& st, TaskId tid, bool writes) {
    if (writes) {
      // WAR edges from all readers since the last write, then WAW from the
      // previous writer (if no readers intervened, the WAR set is empty
      // and the WAW edge orders the writes).
      for (TaskId r : st.readers_since_write) add_edge(r, tid);
      if (st.readers_since_write.empty() && st.last_writer) {
        add_edge(*st.last_writer, tid);
      }
    } else if (st.last_writer) {
      add_edge(*st.last_writer, tid);  // RAW
    }
  };
  const auto apply = [&](Stream& st, TaskId tid, bool writes) {
    consult(st, tid, writes);
    if (writes) {
      st.last_writer = tid;
      st.readers_since_write.clear();
    } else {
      st.readers_since_write.push_back(tid);
    }
  };

  std::unordered_map<hms::ObjectId, ObjectStreams> objects;
  for (const Task& t : graph_.tasks_) {
    for (const DataAccess& a : t.accesses) {
      ObjectStreams& obj = objects[a.object];
      Stream* unit = nullptr;
      if (a.chunk == kAllChunks) {
        // A whole-object access conflicts with each tracked chunk of the
        // object, in ascending chunk order, as well as the whole-object
        // stream itself.
        for (auto& [chunk, st] : obj.chunks) apply(st, t.id, a.writes());
        unit = &obj.whole;
      } else {
        // A chunk access also conflicts with the whole-object stream, but
        // must not register in it: same-chunk ordering lives in the
        // chunk's own stream, and registering there would make later
        // accesses to other chunks of the object conflict with this one
        // spuriously.
        consult(obj.whole, t.id, a.writes());
        auto it = std::lower_bound(
            obj.chunks.begin(), obj.chunks.end(), a.chunk,
            [](const auto& e, std::size_t c) { return e.first < c; });
        if (it == obj.chunks.end() || it->first != a.chunk) {
          it = obj.chunks.insert(it, {a.chunk, Stream{}});
        }
        unit = &it->second;
      }
      apply(*unit, t.id, a.writes());

      if (unit->groups == nullptr) {
        unit->groups = &graph_.unit_groups_[Unit{a.object, a.chunk}];
      }
      if (unit->groups->empty() || unit->groups->back() != t.group) {
        unit->groups->push_back(t.group);
      }
    }
  }
}

TaskGraph GraphBuilder::build() {
  TAHOE_REQUIRE(!graph_.groups_.empty(), "graph has no groups");
  if (repeats_previous()) return std::move(*previous_);
  if (previous_) take_previous_tasks();
  derive();
  return std::move(graph_);
}

}  // namespace tahoe::task
