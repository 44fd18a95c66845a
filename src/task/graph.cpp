#include "task/graph.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <utility>

#include "common/assert.hpp"

namespace tahoe::task {
namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Dependence state of one unit: its last writer, the readers since (a
/// list in the workspace's reader pool), and the group of the unit's last
/// reference.
struct Stream {
  TaskId last_writer = kNone;
  std::uint32_t first_reader = kNone;
  std::uint32_t last_reader = kNone;
  GroupId last_group = kNone;
  /// A whole-object stream's first chunk stream; a chunk stream's next
  /// sibling. Linked as the chunks are first accessed.
  std::uint32_t next_chunk = kNone;
};

/// derive()'s working state. Each build resets it without giving back its
/// capacity, so once it has held a graph as large, deriving allocates
/// nothing here.
class DeriveWorkspace {
 public:
  /// Forget the previous build.
  void reset(std::size_t num_tasks) {
    streams.clear();
    readers_.clear();
    free_reader_ = kNone;
    edges.clear();
    refs.clear();
    last_target_of.assign(num_tasks, kNone);
    used_ = 0;
    if (++stamp_ == 0) {  // wrapped: no old slot may look current
      for (Slot& slot : slots_) slot.stamp = 0;
      stamp_ = 1;
    }
  }

  /// Index in `streams` of unit (obj, chunk)'s stream, created empty (and
  /// `added` set) on first use. May move `streams`.
  std::uint32_t find_or_add(hms::ObjectId obj, std::size_t chunk,
                            bool& added) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(obj, chunk) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_) {
        slot = Slot{chunk, obj, static_cast<std::uint32_t>(streams.size()),
                    stamp_};
        streams.emplace_back();
        ++used_;
        added = true;
        return slot.stream;
      }
      if (slot.object == obj && slot.chunk == chunk) {
        added = false;
        return slot.stream;
      }
    }
  }

  /// Call `f` on each reader of `st` since its last write, in the order
  /// they read; add a reader; forget them all (their nodes go back to the
  /// pool's free list).
  template <typename F>
  void for_each_reader(const Stream& st, F&& f) const {
    for (std::uint32_t r = st.first_reader; r != kNone; r = readers_[r].next) {
      f(readers_[r].task);
    }
  }
  void add_reader(Stream& st, TaskId task) {
    std::uint32_t node = free_reader_;
    if (node != kNone) {
      free_reader_ = readers_[node].next;
    } else {
      node = static_cast<std::uint32_t>(readers_.size());
      readers_.emplace_back();
    }
    readers_[node] = Reader{task, kNone};
    if (st.last_reader == kNone) {
      st.first_reader = node;
    } else {
      readers_[st.last_reader].next = node;
    }
    st.last_reader = node;
  }
  void clear_readers(Stream& st) {
    if (st.first_reader == kNone) return;
    readers_[st.last_reader].next = free_reader_;
    free_reader_ = st.first_reader;
    st.first_reader = st.last_reader = kNone;
  }

  std::vector<Stream> streams;
  /// Dependence edges (from, to), in the order they were found.
  std::vector<std::pair<TaskId, TaskId>> edges;
  /// Each task's latest successor so far (edge dedup).
  std::vector<TaskId> last_target_of;
  /// Unit index entries, one per (unit, group), in the order found.
  std::vector<TaskGraph::UnitRef> refs;

 private:
  /// One reader in a stream's list, or a free node.
  struct Reader {
    TaskId task = 0;
    std::uint32_t next = kNone;
  };
  /// Open-addressing slot of the unit -> stream table.
  struct Slot {
    std::size_t chunk = 0;
    hms::ObjectId object = hms::kInvalidObject;
    std::uint32_t stream = 0;
    std::uint32_t stamp = 0;  ///< in use in this build iff equal to stamp_
  };

  static std::size_t hash(hms::ObjectId obj, std::size_t chunk) {
    std::uint64_t h = static_cast<std::uint64_t>(chunk) * 0x9e3779b97f4a7c15u +
                      obj;
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93u;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  /// Double the table (at least 16 slots), keeping this build's entries.
  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.stamp != stamp_) continue;
      std::size_t i = hash(slot.object, slot.chunk) & mask;
      while (slots_[i].stamp == stamp_) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size, at most half in use
  std::size_t used_ = 0;
  std::uint32_t stamp_ = 0;
  std::vector<Reader> readers_;
  std::uint32_t free_reader_ = kNone;
};

/// The unit index entries a query of unit (obj, chunk) sees: a chunk
/// query sees the chunk's entries and the whole object's, a whole-object
/// query every entry of the object (then nothing more).
std::array<std::span<const TaskGraph::UnitRef>, 2> refs_seen(
    const std::vector<TaskGraph::UnitRef>& refs, hms::ObjectId obj,
    std::size_t chunk) {
  using UnitRef = TaskGraph::UnitRef;
  if (chunk == kAllChunks) {
    const auto all = std::ranges::equal_range(refs, obj, {}, &UnitRef::object);
    return {std::span<const UnitRef>(all.begin(), all.end()), {}};
  }
  const auto unit_of = [](const UnitRef& r) {
    return std::pair{r.object, r.chunk};
  };
  const auto own = std::ranges::equal_range(refs, std::pair{obj, chunk}, {},
                                            unit_of);
  const auto whole = std::ranges::equal_range(
      refs, std::pair{obj, kAllChunks}, {}, unit_of);
  return {std::span<const UnitRef>(own.begin(), own.end()),
          std::span<const UnitRef>(whole.begin(), whole.end())};
}

}  // namespace

std::vector<GroupId> TaskGraph::groups_referencing(hms::ObjectId obj,
                                                   std::size_t chunk) const {
  const std::array<std::span<const UnitRef>, 2> seen =
      refs_seen(unit_refs_, obj, chunk);
  std::vector<GroupId> out;
  out.reserve(seen[0].size() + seen[1].size());
  for (const std::span<const UnitRef> refs : seen) {
    for (const UnitRef& r : refs) out.push_back(r.group);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<GroupId> TaskGraph::last_reference_before(hms::ObjectId obj,
                                                        std::size_t chunk,
                                                        GroupId g) const {
  std::optional<GroupId> best;
  for (const std::span<const UnitRef> refs :
       refs_seen(unit_refs_, obj, chunk)) {
    for (const UnitRef& r : refs) {
      if (r.group < g && (!best || r.group > *best)) best = r.group;
    }
  }
  return best;
}

void TaskGraph::clear() noexcept {
  tasks_.clear();
  groups_.clear();
  succ_.clear();
  succ_begin_.clear();
  pred_count_.clear();
  unit_refs_.clear();
}

GraphBuilder::GraphBuilder(TaskGraph previous)
    : previous_(std::move(previous)) {}

bool GraphBuilder::keep_previous() {
  TAHOE_REQUIRE(kept_ || graph_.groups_.empty(),
                "keep_previous after begin_group");
  if (!kept_ && previous_.num_groups() > 0) {
    graph_ = std::move(previous_);
    kept_ = true;
  }
  return kept_;
}

GroupId GraphBuilder::begin_group(std::string name) {
  TAHOE_REQUIRE(!kept_, "begin_group after keep_previous");
  if (graph_.groups_.empty()) {
    // Declaring in full: the previous graph lends its arrays' storage.
    graph_ = std::move(previous_);
    graph_.clear();
  }
  const auto g = static_cast<GroupId>(graph_.groups_.size());
  Group grp;
  grp.name = std::move(name);
  grp.first_task = static_cast<TaskId>(graph_.tasks_.size());
  grp.last_task = grp.first_task;
  graph_.groups_.push_back(std::move(grp));
  return g;
}

TaskId GraphBuilder::add_task(Task t) {
  TAHOE_REQUIRE(!kept_ && !graph_.groups_.empty(),
                "add_task outside of a declared group");
  const auto tid = static_cast<TaskId>(graph_.tasks_.size());
  t.id = tid;
  t.group = static_cast<GroupId>(graph_.groups_.size() - 1);
  TAHOE_REQUIRE(t.compute_seconds >= 0.0, "negative compute time");
  for (const DataAccess& a : t.accesses) {
    TAHOE_REQUIRE(a.object != hms::kInvalidObject, "access to invalid object");
  }
  graph_.groups_.back().last_task = tid + 1;
  graph_.tasks_.push_back(std::move(t));
  return tid;
}

void GraphBuilder::derive() {
  thread_local DeriveWorkspace ws;
  const std::size_t n = graph_.tasks_.size();
  TAHOE_REQUIRE(n < kNone, "too many tasks for one graph");
  ws.reset(n);
  graph_.pred_count_.assign(n, 0);
  // Cheap dedup: consecutive accesses of one task to sibling units would
  // otherwise create the same edge repeatedly.
  const auto add_edge = [&](TaskId from, TaskId to) {
    if (from == to || ws.last_target_of[from] == to) return;
    ws.last_target_of[from] = to;
    ws.edges.emplace_back(from, to);
    ++graph_.pred_count_[to];
  };
  // Add the edges an access gets from `st` without registering in it.
  const auto consult = [&](const Stream& st, TaskId tid, bool writes) {
    if (writes) {
      // WAR edges from all readers since the last write, then WAW from the
      // previous writer (if no readers intervened, the WAR set is empty
      // and the WAW edge orders the writes).
      ws.for_each_reader(st, [&](TaskId r) { add_edge(r, tid); });
      if (st.first_reader == kNone && st.last_writer != kNone) {
        add_edge(st.last_writer, tid);
      }
    } else if (st.last_writer != kNone) {
      add_edge(st.last_writer, tid);  // RAW
    }
  };
  const auto apply = [&](Stream& st, TaskId tid, bool writes) {
    consult(st, tid, writes);
    if (writes) {
      st.last_writer = tid;
      ws.clear_readers(st);
    } else {
      ws.add_reader(st, tid);
    }
  };

  for (const Task& t : graph_.tasks_) {
    for (const DataAccess& a : t.accesses) {
      bool added = false;
      const std::uint32_t whole = ws.find_or_add(a.object, kAllChunks, added);
      std::uint32_t unit = whole;
      if (a.chunk == kAllChunks) {
        // A whole-object access conflicts with each tracked chunk of the
        // object as well as the whole-object stream itself. Every edge an
        // access adds ends at this task, so the chunks' order is moot.
        for (std::uint32_t c = ws.streams[whole].next_chunk; c != kNone;
             c = ws.streams[c].next_chunk) {
          apply(ws.streams[c], t.id, a.writes());
        }
      } else {
        unit = ws.find_or_add(a.object, a.chunk, added);
        if (added) {
          ws.streams[unit].next_chunk = ws.streams[whole].next_chunk;
          ws.streams[whole].next_chunk = unit;
        }
        // A chunk access also conflicts with the whole-object stream, but
        // must not register in it: same-chunk ordering lives in the
        // chunk's own stream, and registering there would make later
        // accesses to other chunks of the object conflict with this one
        // spuriously.
        consult(ws.streams[whole], t.id, a.writes());
      }
      Stream& st = ws.streams[unit];
      apply(st, t.id, a.writes());
      if (st.last_group != t.group) {
        st.last_group = t.group;
        ws.refs.push_back(TaskGraph::UnitRef{a.object, a.chunk, t.group});
      }
    }
  }

  // Successors: the edges grouped by source, stably, so each task's keep
  // the order they were found in. succ_begin_ first counts, then holds
  // each source's fill cursor, then shifts back to the start offsets.
  std::vector<std::size_t>& begin = graph_.succ_begin_;
  begin.assign(n + 1, 0);
  for (const auto& [from, to] : ws.edges) ++begin[from + 1];
  for (std::size_t i = 0; i < n; ++i) begin[i + 1] += begin[i];
  graph_.succ_.resize(ws.edges.size());
  for (const auto& [from, to] : ws.edges) graph_.succ_[begin[from]++] = to;
  for (std::size_t i = n; i > 0; --i) begin[i] = begin[i - 1];
  begin[0] = 0;

  std::sort(ws.refs.begin(), ws.refs.end());
  graph_.unit_refs_.assign(ws.refs.begin(), ws.refs.end());
}

TaskGraph GraphBuilder::build() {
  TAHOE_REQUIRE(!graph_.groups_.empty(), "graph has no groups");
  if (!kept_) derive();
  return std::move(graph_);
}

}  // namespace tahoe::task
