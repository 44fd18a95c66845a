// Deterministic simulated execution of a task graph on a heterogeneous
// memory machine.
//
// Groups (phases) execute sequentially, as the paper's runtime enforces at
// phase boundaries; inside a group, up to `workers` tasks run concurrently,
// respecting intra-group dependences. Every running task is a fluid flow
// (see memsim/fluid.hpp) whose demands depend on the *current placement* of
// the data objects it touches.
//
// Proactive migration is modeled faithfully: a ScheduledCopy fires when its
// trigger group is entered, joins the helper thread's FIFO (one copy in
// flight at a time — a single helper thread), progresses as a flow that
// contends for device bandwidth with the application, and updates the
// placement map at its completion. Entering a group blocks until every copy
// that the group *needs* has completed; the blocked time is recorded as
// migration stall (the non-overlapped part of the data-movement cost).
//
// An executor owns its run storage: the pending-predecessor counts, the
// ready list, the copy bookkeeping, the per-task access list and flow spec,
// the FluidSim and the report. Every run resets all of it and keeps its
// capacity, so an executor that runs graph after graph (one serving epoch
// after another) allocates only while a run outgrows every earlier one;
// nothing per task, per access or per event. Hence one executor serves
// one thread at a time: two threads running graphs at once need an
// executor each, and a report read after the executor's next run must be
// copied first.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "hms/placement.hpp"
#include "memsim/fluid.hpp"
#include "memsim/machine.hpp"
#include "task/graph.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

namespace tahoe::task {

struct ScheduledCopy {
  hms::ObjectId object = hms::kInvalidObject;
  std::size_t chunk = 0;
  std::uint64_t bytes = 0;
  memsim::DeviceId dst = memsim::kDram;
  /// Fire when this group is entered...
  GroupId trigger_group = 0;
  /// ...and must be complete before this group starts running tasks.
  GroupId needed_group = 0;

  bool operator==(const ScheduledCopy&) const = default;
};

/// Ground-truth access attribution: what tasks of one group did to one
/// object on one tier during the iteration. Collected only when
/// Options::attribution is on; rows are sorted by (group, object, device).
struct AccessTally {
  GroupId group = 0;
  hms::ObjectId object = hms::kInvalidObject;
  memsim::DeviceId device = memsim::kDram;  ///< tier that served the traffic
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t tasks = 0;  ///< task-access pairs contributing to this row
};

/// Per-(object, source tier, destination tier) migration tally. `hidden`
/// counts copies that completed outside any group-entry wait — data
/// movement fully overlapped with computation.
struct CopyTally {
  hms::ObjectId object = hms::kInvalidObject;
  memsim::DeviceId src = memsim::kNvm;  ///< tier the copy read from
  memsim::DeviceId dst = memsim::kDram;
  std::uint64_t copies = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hidden = 0;
};

struct SimReport {
  double makespan = 0.0;              ///< completion time of the last task
  std::vector<double> group_seconds;  ///< wall span of each group
  std::vector<double> group_start;    ///< entry time of each group
  std::vector<double> task_seconds;   ///< duration of each task
  std::uint64_t copies_done = 0;
  std::uint64_t bytes_copied = 0;
  double copy_busy_seconds = 0.0;  ///< sum of copy flow durations
  double stall_seconds = 0.0;      ///< group-entry waits on copies
  std::vector<double> device_busy_seconds;
  /// Bytes copied per (source, destination) tier pair, indexed
  /// src * num_tiers + dst: what the run added to each
  /// migrate.bytes.t<src>_t<dst> counter.
  std::vector<std::uint64_t> tier_pair_bytes;
  std::vector<AccessTally> access_tallies;  ///< empty unless attribution
  std::vector<CopyTally> copy_tallies;      ///< empty unless attribution

  /// Fraction of data-movement time hidden behind computation.
  double overlap_fraction() const noexcept {
    if (copy_busy_seconds <= 0.0) return 1.0;
    const double overlapped = copy_busy_seconds - stall_seconds;
    return overlapped > 0.0 ? overlapped / copy_busy_seconds : 0.0;
  }
};

class SimExecutor {
 public:
  struct Options {
    std::uint32_t workers = 0;  ///< 0 = machine.workers
    /// Unit size oracle. When set, every copy completion verifies that
    /// its destination tier's occupancy stays within capacity.
    std::function<std::uint64_t(hms::ObjectId, std::size_t)> unit_size;
    /// Event sink for virtual-time spans (task executions on worker-lane
    /// tracks, migration copies on the migration track, group-entry
    /// stalls). Null disables instrumentation entirely.
    trace::Tracer* tracer = nullptr;
    /// Added to every emitted timestamp so multi-iteration runs lay out
    /// consecutively on one timeline (each iteration restarts sim time
    /// at zero).
    double trace_time_offset = 0.0;
    /// Collect SimReport::access_tallies / copy_tallies (per task-type and
    /// per-object attribution). Off by default: it costs a map insertion
    /// per task access.
    bool attribution = false;
    /// Override for memsim::FluidSim::Tuning::lazy_threshold — the active
    /// flow count above which the simulator switches from the exact scan
    /// core to the indexed engine. 0 keeps the library default (which
    /// keeps paper-scale runs on the golden-pinned exact arithmetic).
    std::size_t sim_lazy_threshold = 0;
  };

  /// Execute and return the timing report, which the executor owns and
  /// which stays valid until its next run. `placement` is consumed as the
  /// initial state and left in its final state on return (so callers can
  /// carry residency across iterations). Nothing of an earlier run is
  /// carried over but the storage.
  const SimReport& run(const TaskGraph& graph, const memsim::Machine& machine,
                       hms::PlacementMap& placement,
                       const std::vector<ScheduledCopy>& schedule,
                       const Options& options);

  const SimReport& run(const TaskGraph& graph, const memsim::Machine& machine,
                       hms::PlacementMap& placement,
                       const std::vector<ScheduledCopy>& schedule) {
    return run(graph, machine, placement, schedule, Options{});
  }

 private:
  struct CopyState {
    bool fired = false;
    bool done = false;
    memsim::DeviceId src = memsim::kDram;  ///< captured at start for tracing
  };

  // Run storage (see the file comment); run() resets every field.
  memsim::FluidSim sim_{1};
  std::vector<std::uint32_t> pending_;  ///< unfinished predecessors per task
  std::vector<TaskId> ready_;           ///< the current group's ready tasks
  std::vector<CopyState> copy_state_;   ///< per schedule entry
  /// Fired copies waiting for the helper thread, from copy_fifo_head_ on.
  std::vector<std::size_t> copy_fifo_;
  std::size_t copy_fifo_head_ = 0;
  /// Schedule indices fired at (needed by) group g, in schedule order:
  /// fired_[fired_begin_[g], fired_begin_[g + 1]), likewise needed_.
  std::vector<std::size_t> fired_;
  std::vector<std::size_t> fired_begin_;
  std::vector<std::size_t> needed_;
  std::vector<std::size_t> needed_begin_;
  /// migrate.bytes counter per tier pair, looked up at the pair's first
  /// copy of the run.
  std::vector<trace::Counter*> pair_counters_;
  std::vector<std::uint32_t> task_lane_;   ///< traced runs only
  std::vector<std::uint32_t> free_lanes_;  ///< traced runs only
  /// The starting task's (traffic, device) pairs and its flow.
  std::vector<std::pair<memsim::ObjectTraffic, memsim::DeviceId>> accesses_;
  memsim::FlowSpec flow_;
  SimReport report_;  ///< the last run's report
};

/// The last simulated run, kept so that an exact repeat takes its outcome
/// instead of being simulated again. A run is a pure function of its graph,
/// machine, start residency, schedule and options, so a run that repeats
/// all five ends where the kept run ended, with the same report.
class RunMemo {
 public:
  /// Whether a run repeats the kept one: it runs the kept run's graph
  /// (`same_graph`, which the caller vouches for, e.g. through
  /// GraphBuilder::keep_previous) from the same residency under the
  /// same schedule, and nothing records from inside it: no enabled tracer
  /// in `options`, no telemetry sampler, no latency histograms. An
  /// observed run must run. The caller keeps the machine and the other
  /// options fixed.
  bool repeats(bool same_graph, const hms::PlacementMap& start,
               const std::vector<ScheduledCopy>& schedule,
               const SimExecutor::Options& options) const;

  /// Keep a fresh run: it started from `start` under `schedule`, reported
  /// `report` and ended at `end`. Returns the kept copy of the report.
  const SimReport& keep(hms::PlacementMap start,
                        const std::vector<ScheduledCopy>& schedule,
                        const SimReport& report, const hms::PlacementMap& end);

  /// Take the kept run's outcome for a repeat of `num_tasks` tasks: set
  /// `placement` to its end residency and add to the global counters what
  /// the run added (sim.tasks_executed and every migrate.bytes pair).
  const SimReport& replay(hms::PlacementMap& placement,
                          std::size_t num_tasks) const;

 private:
  bool kept_ = false;
  hms::PlacementMap start_;
  std::vector<ScheduledCopy> schedule_;
  SimReport report_;
  hms::PlacementMap end_;
  /// The migrate.bytes counter and byte total of each pair the run copied
  /// across.
  std::vector<std::pair<trace::Counter*, std::uint64_t>> pair_bytes_;
};

}  // namespace tahoe::task
