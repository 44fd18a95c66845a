#include "task/sim_executor.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/assert.hpp"
#include "trace/counters.hpp"
#include "trace/telemetry.hpp"

namespace tahoe::task {
namespace {

// Flow tags: tasks use their id; copies use kCopyBit | schedule index.
constexpr std::uint64_t kCopyBit = 1ULL << 63;

/// sim.tasks_executed, the simulator's progress counter.
trace::Counter& tasks_executed_counter() {
  static trace::Counter& counter =
      trace::global_counters().get("sim.tasks_executed");
  return counter;
}

/// migrate.bytes.t<src>_t<dst>: bytes copied from tier `src` to `dst`.
trace::Counter& pair_bytes_counter(std::size_t src, std::size_t dst) {
  return trace::global_counters().get("migrate.bytes.t" + std::to_string(src) +
                                      "_t" + std::to_string(dst));
}

/// Index the schedule by group: on return, index[begin[g], begin[g + 1])
/// lists in schedule order the copies whose `group_of` is g, for every
/// g < num_groups (copies at num_groups or past it are left out).
template <typename GroupOf>
void index_by_group(const std::vector<ScheduledCopy>& schedule,
                    std::size_t num_groups, GroupOf group_of,
                    std::vector<std::size_t>& begin,
                    std::vector<std::size_t>& index) {
  begin.assign(num_groups + 1, 0);
  for (const ScheduledCopy& c : schedule) {
    if (group_of(c) < num_groups) ++begin[group_of(c) + 1];
  }
  for (std::size_t g = 0; g < num_groups; ++g) begin[g + 1] += begin[g];
  index.resize(begin[num_groups]);
  // Fill with begin[g] as group g's cursor, then shift the cursors (each
  // now the next group's start) back into place.
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const std::size_t g = group_of(schedule[i]);
    if (g < num_groups) index[begin[g]++] = i;
  }
  for (std::size_t g = num_groups; g > 0; --g) begin[g] = begin[g - 1];
  begin[0] = 0;
}

}  // namespace

const SimReport& SimExecutor::run(const TaskGraph& graph,
                                  const memsim::Machine& machine,
                                  hms::PlacementMap& placement,
                                  const std::vector<ScheduledCopy>& schedule,
                                  const Options& options) {
  TAHOE_REQUIRE(graph.num_tasks() > 0, "empty graph");
  for (const ScheduledCopy& c : schedule) {
    TAHOE_REQUIRE(c.trigger_group <= c.needed_group,
                  "copy triggered after it is needed");
    TAHOE_REQUIRE(c.needed_group < graph.num_groups() + 1,
                  "copy needed past the end of the graph");
  }

  const std::uint32_t workers =
      options.workers != 0 ? options.workers : machine.workers;
  TAHOE_REQUIRE(workers >= 1, "need at least one worker");

  // Instrumentation is fully skipped (not just null-sunk) when the tracer
  // is absent or disabled.
  trace::Tracer* const tracer =
      (options.tracer != nullptr && options.tracer->enabled())
          ? options.tracer
          : nullptr;
  const double t0 = options.trace_time_offset;

  // Progress counter + telemetry driver. The counter registration is
  // hoisted out of the task-completion loop; the sampler pointer is only
  // non-null when the sampler is armed, so steady-state runs pay one
  // relaxed load here and nothing per task.
  trace::Counter& tasks_executed = tasks_executed_counter();
  trace::TelemetrySampler* const sampler =
      trace::telemetry().enabled() ? &trace::telemetry() : nullptr;

  memsim::FluidSim::Tuning sim_tuning;
  if (options.sim_lazy_threshold != 0) {
    sim_tuning.lazy_threshold = options.sim_lazy_threshold;
  }
  const std::size_t num_tiers = machine.devices.size();
  memsim::FluidSim& sim = sim_;
  sim.reset(num_tiers, sim_tuning);
  SimReport& report = report_;
  report.makespan = 0.0;
  report.group_seconds.assign(graph.num_groups(), 0.0);
  report.group_start.assign(graph.num_groups(), 0.0);
  report.task_seconds.assign(graph.num_tasks(), 0.0);
  report.copies_done = 0;
  report.bytes_copied = 0;
  report.copy_busy_seconds = 0.0;
  report.stall_seconds = 0.0;
  report.device_busy_seconds.clear();
  report.tier_pair_bytes.assign(num_tiers * num_tiers, 0);
  report.access_tallies.clear();
  report.copy_tallies.clear();
  // migrate.bytes.t<src>_t<dst> per tier pair, looked up at the pair's
  // first copy (a pair never copied across stays unregistered).
  pair_counters_.assign(num_tiers * num_tiers, nullptr);

  // Dependence counters.
  pending_.resize(graph.num_tasks());
  for (TaskId id = 0; id < graph.num_tasks(); ++id) {
    pending_[id] = graph.num_predecessors(id);
  }

  // Copy machinery: FIFO of fired copies, single copy in flight.
  copy_state_.assign(schedule.size(), CopyState{});
  copy_fifo_.clear();
  copy_fifo_head_ = 0;
  std::size_t in_flight_copy = schedule.size();  // sentinel: none

  // Group-indexed views of the schedule so entering a group touches only
  // its own copies instead of rescanning the whole schedule (which made
  // large sweep scenarios quadratic in the schedule length). Order within
  // a group is schedule order, preserving the firing FIFO semantics.
  index_by_group(
      schedule, graph.num_groups(),
      [](const ScheduledCopy& c) { return std::size_t{c.trigger_group}; },
      fired_begin_, fired_);
  index_by_group(
      schedule, graph.num_groups(),
      [](const ScheduledCopy& c) { return std::size_t{c.needed_group}; },
      needed_begin_, needed_);

  // Attribution tables (std::map keeps the dump order deterministic).
  std::map<std::tuple<GroupId, hms::ObjectId, memsim::DeviceId>, AccessTally>
      acc_tally;
  std::map<std::tuple<hms::ObjectId, memsim::DeviceId, memsim::DeviceId>,
           CopyTally>
      cp_tally;

  // Tier-0 occupancy counter track: needs the unit-size oracle to price
  // the initial residency; updated at every completed copy.
  const bool track_occupancy = tracer != nullptr && options.unit_size != nullptr;
  std::uint64_t tier0_bytes = 0;
  if (track_occupancy) {
    tier0_bytes =
        placement.bytes_on(memsim::kDram, [&](hms::ObjectId o, std::size_t ch) {
          return options.unit_size(o, ch);
        });
    tracer->counter(trace::kRuntimeTrack, "t0_occupancy_bytes", t0,
                    tier0_bytes);
  }

  // Bytes in flight per destination tier: one copy at a time, so the
  // track toggles between 0 and the copy's size.
  auto trace_inflight = [&](memsim::DeviceId dst, std::uint64_t bytes) {
    const std::string track = "inflight_to_t" + std::to_string(dst) + "_bytes";
    tracer->counter(trace::kMigrationTrack, track.c_str(), t0 + sim.now(),
                    bytes);
  };

  // Start queued copies until one is in flight (copies whose source
  // already equals the destination — e.g. residency left over from a
  // previous iteration — complete immediately and cost nothing).
  const auto queued_copies = [&]() {
    return copy_fifo_.size() - copy_fifo_head_;
  };
  auto start_next = [&]() {
    while (in_flight_copy == schedule.size() && queued_copies() > 0) {
      const std::size_t idx = copy_fifo_[copy_fifo_head_++];
      const ScheduledCopy& c = schedule[idx];
      const memsim::DeviceId src = placement.device_of(c.object, c.chunk);
      if (src == c.dst) {
        copy_state_[idx].done = true;
        continue;  // nothing to move; try the next queued copy
      }
      machine.copy_flow(c.bytes, src, c.dst, kCopyBit | idx, flow_);
      (void)sim.start_flow(flow_);
      copy_state_[idx].src = src;
      in_flight_copy = idx;
      if (tracer != nullptr) {
        tracer->counter(trace::kMigrationTrack, "copy_queue_depth",
                        t0 + sim.now(), queued_copies() + 1);
        trace_inflight(c.dst, c.bytes);
      }
    }
  };

  // A copy flow's tag carries its schedule index.
  auto complete_copy = [&](const memsim::FlowCompletion& done, bool hidden) {
    const std::size_t idx = done.tag & ~kCopyBit;
    const double duration = done.time - done.start_time;
    const ScheduledCopy& c = schedule[idx];
    if (tracer != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::Complete;
      ev.track = trace::kMigrationTrack;
      ev.ts = t0 + sim.now() - duration;
      ev.dur = duration;
      const std::string label =
          "migrate " + machine.devices[copy_state_[idx].src].name + "->" +
          machine.devices[c.dst].name;
      ev.set_name(label.c_str());
      ev.add_arg("bytes", c.bytes);
      ev.add_arg("src_tier", copy_state_[idx].src);
      ev.add_arg("dst_tier", c.dst);
      ev.add_arg("object", c.object);
      tracer->emit(ev);
    }
    // Metrics registry: bytes moved per (src, dst) tier pair.
    const std::size_t pair = copy_state_[idx].src * num_tiers + c.dst;
    if (pair_counters_[pair] == nullptr) {
      pair_counters_[pair] = &pair_bytes_counter(copy_state_[idx].src, c.dst);
    }
    pair_counters_[pair]->add(c.bytes);
    report.tier_pair_bytes[pair] += c.bytes;
    copy_state_[idx].done = true;
    placement.set(c.object, c.chunk, c.dst);
    ++report.copies_done;
    report.bytes_copied += c.bytes;
    report.copy_busy_seconds += duration;
    if (trace::histograms_enabled()) {
      static trace::Histogram& copy_seconds =
          trace::global_counters().histogram("sim.copy_seconds");
      copy_seconds.record_seconds(duration);
    }
    if (options.attribution) {
      CopyTally& tally = cp_tally[{c.object, copy_state_[idx].src, c.dst}];
      tally.object = c.object;
      tally.src = copy_state_[idx].src;
      tally.dst = c.dst;
      ++tally.copies;
      tally.bytes += c.bytes;
      if (hidden) ++tally.hidden;
    }
    TAHOE_ASSERT(in_flight_copy == idx, "copy completion out of order");
    in_flight_copy = schedule.size();
    if (tracer != nullptr) {
      tracer->counter(trace::kMigrationTrack, "copy_queue_depth",
                      t0 + sim.now(), queued_copies());
      trace_inflight(c.dst, 0);
    }
    if (track_occupancy) {
      if (c.dst == memsim::kDram) {
        tier0_bytes += c.bytes;
      } else if (copy_state_[idx].src == memsim::kDram) {
        tier0_bytes = tier0_bytes >= c.bytes ? tier0_bytes - c.bytes : 0;
      }
      tracer->counter(trace::kRuntimeTrack, "t0_occupancy_bytes",
                      t0 + sim.now(), tier0_bytes);
    }
    if (options.unit_size && c.dst < machine.devices.size()) {
      const std::uint64_t resident = placement.bytes_on(
          c.dst, [&](hms::ObjectId o, std::size_t ch) {
            return options.unit_size(o, ch);
          });
      TAHOE_ASSERT(resident <= machine.devices[c.dst].capacity,
                   "placement exceeded device capacity");
    }
    start_next();
  };

  // Worker-lane bookkeeping for tracing: the fluid sim has no thread
  // identity, so each running task borrows a free lane (0..workers-1) and
  // its span lands on that lane's track — giving the familiar one-row-per-
  // worker timeline.
  task_lane_.clear();
  free_lanes_.clear();
  if (tracer != nullptr) {
    task_lane_.assign(graph.num_tasks(), 0);
    for (std::uint32_t w = workers; w > 0; --w) free_lanes_.push_back(w - 1);
  }

  // Build the flow for one task under the current placement.
  auto start_task = [&](TaskId id) {
    const Task& t = graph.task(id);
    accesses_.clear();
    for (const DataAccess& a : t.accesses) {
      const std::size_t chunk = (a.chunk == kAllChunks) ? 0 : a.chunk;
      // Whole-object accesses to chunked objects are charged per chunk by
      // the workload layer; kAllChunks here refers to unit 0's placement.
      const memsim::DeviceId dev = placement.device_of(a.object, chunk);
      accesses_.emplace_back(a.traffic, dev);
      if (options.attribution) {
        AccessTally& tally = acc_tally[{t.group, a.object, dev}];
        tally.group = t.group;
        tally.object = a.object;
        tally.device = dev;
        tally.loads += a.traffic.loads;
        tally.stores += a.traffic.stores;
        ++tally.tasks;
      }
    }
    machine.task_flow(t.compute_seconds, accesses_, t.id, flow_);
    (void)sim.start_flow(flow_);
    if (tracer != nullptr) {
      TAHOE_ASSERT(!free_lanes_.empty(), "more running tasks than workers");
      task_lane_[id] = free_lanes_.back();
      free_lanes_.pop_back();
    }
  };

  // ---- main phase loop ----------------------------------------------
  for (GroupId g = 0; g < graph.num_groups(); ++g) {
    const Group& grp = graph.group(g);

    // Fire copies triggered at this group's entry, in schedule order.
    for (std::size_t k = fired_begin_[g]; k < fired_begin_[g + 1]; ++k) {
      const std::size_t i = fired_[k];
      if (!copy_state_[i].fired) {
        copy_state_[i].fired = true;
        copy_fifo_.push_back(i);
      }
    }
    start_next();

    // Wait for the copies this group needs (stall = exposed move cost).
    auto needed_pending = [&]() {
      for (std::size_t k = needed_begin_[g]; k < needed_begin_[g + 1]; ++k) {
        const std::size_t i = needed_[k];
        if (copy_state_[i].fired && !copy_state_[i].done) return true;
      }
      return false;
    };
    const double wait_begin = sim.now();
    while (needed_pending()) {
      const auto completion = sim.step();
      TAHOE_ASSERT(completion.has_value(),
                   "waiting on copies but no active flows");
      TAHOE_ASSERT(completion->tag & kCopyBit,
                   "unexpected task completion while only copies should run");
      // A copy the group is blocked on is exposed, not hidden.
      complete_copy(*completion, /*hidden=*/false);
    }
    // Telemetry rides the same run-relative virtual clock as the trace:
    // t0 carries the run's accumulated iteration time, and begin_run()
    // restarts the sampler's epoch at each new Runtime entry point.
    report.stall_seconds += sim.now() - wait_begin;
    if (sampler != nullptr) sampler->advance_virtual(t0 + sim.now());
    if (tracer != nullptr && sim.now() > wait_begin) {
      tracer->complete(trace::kRuntimeTrack, "migration-stall",
                       t0 + wait_begin, sim.now() - wait_begin, "group", g);
    }

    // Run the group's tasks.
    report.group_start[g] = sim.now();
    ready_.clear();
    for (TaskId id = grp.first_task; id < grp.last_task; ++id) {
      if (pending_[id] == 0) ready_.push_back(id);
    }
    std::size_t running = 0;
    std::size_t remaining = grp.size();
    std::size_t next_ready = 0;
    while (remaining > 0) {
      while (running < workers && next_ready < ready_.size()) {
        start_task(ready_[next_ready++]);
        ++running;
      }
      const auto completion = sim.step();
      TAHOE_ASSERT(completion.has_value(), "group deadlock in simulation");
      if (completion->tag & kCopyBit) {
        complete_copy(*completion, /*hidden=*/true);
        continue;
      }
      const auto tid = static_cast<TaskId>(completion->tag);
      report.task_seconds[tid] = completion->time - completion->start_time;
      tasks_executed.increment();
      if (trace::histograms_enabled()) {
        static trace::Histogram& task_durations =
            trace::global_counters().histogram("sim.task_seconds");
        task_durations.record_seconds(report.task_seconds[tid]);
      }
      if (tracer != nullptr) {
        const Task& t = graph.task(tid);
        tracer->complete(task_lane_[tid],
                         t.label.empty() ? "task" : t.label.c_str(),
                         t0 + completion->start_time,
                         completion->time - completion->start_time, "task",
                         tid, "group", g);
        free_lanes_.push_back(task_lane_[tid]);
      }
      --running;
      --remaining;
      for (TaskId succ : graph.successors(tid)) {
        TAHOE_ASSERT(pending_[succ] > 0, "pred counter underflow");
        if (--pending_[succ] == 0 && graph.task(succ).group == g) {
          ready_.push_back(succ);
        }
      }
    }
    report.group_seconds[g] = sim.now() - report.group_start[g];
    if (sampler != nullptr) sampler->advance_virtual(t0 + sim.now());
    if (tracer != nullptr) {
      const std::string label = "group " + grp.name;
      tracer->complete(trace::kRuntimeTrack, label.c_str(),
                       t0 + report.group_start[g], report.group_seconds[g],
                       "tasks", grp.size());
    }
  }

  report.makespan = sim.now();

  // Drain any trailing copies (they do not extend the makespan, but their
  // busy time and placement effects are accounted for).
  while (in_flight_copy != schedule.size() || queued_copies() > 0) {
    start_next();
    if (in_flight_copy == schedule.size()) break;  // all remaining were no-ops
    const auto completion = sim.step();
    TAHOE_ASSERT(completion.has_value(), "copy drain deadlock");
    TAHOE_ASSERT(completion->tag & kCopyBit, "unknown trailing flow");
    complete_copy(*completion, /*hidden=*/true);
  }

  report.device_busy_seconds.resize(num_tiers);
  for (std::size_t d = 0; d < num_tiers; ++d) {
    report.device_busy_seconds[d] = sim.device_busy_seconds(d);
  }
  if (options.attribution) {
    report.access_tallies.reserve(acc_tally.size());
    for (const auto& [key, tally] : acc_tally) {
      report.access_tallies.push_back(tally);
    }
    report.copy_tallies.reserve(cp_tally.size());
    for (const auto& [key, tally] : cp_tally) {
      report.copy_tallies.push_back(tally);
    }
  }
  return report;
}

bool RunMemo::repeats(bool same_graph, const hms::PlacementMap& start,
                      const std::vector<ScheduledCopy>& schedule,
                      const SimExecutor::Options& options) const {
  const bool observed =
      (options.tracer != nullptr && options.tracer->enabled()) ||
      trace::telemetry().enabled() || trace::histograms_enabled();
  return kept_ && same_graph && !observed && start == start_ &&
         schedule == schedule_;
}

const SimReport& RunMemo::keep(hms::PlacementMap start,
                               const std::vector<ScheduledCopy>& schedule,
                               const SimReport& report,
                               const hms::PlacementMap& end) {
  const std::size_t num_tiers = report.device_busy_seconds.size();
  kept_ = true;
  start_ = std::move(start);
  schedule_ = schedule;
  end_ = end;
  pair_bytes_.clear();
  for (std::size_t pair = 0; pair < report.tier_pair_bytes.size(); ++pair) {
    if (report.tier_pair_bytes[pair] == 0) continue;
    // The run registered this counter at its first copy across the pair.
    pair_bytes_.emplace_back(
        &pair_bytes_counter(pair / num_tiers, pair % num_tiers),
        report.tier_pair_bytes[pair]);
  }
  report_ = report;
  return report_;
}

const SimReport& RunMemo::replay(hms::PlacementMap& placement,
                                 std::size_t num_tasks) const {
  TAHOE_REQUIRE(kept_, "no run to replay");
  placement = end_;
  tasks_executed_counter().add(num_tasks);
  for (const auto& [counter, bytes] : pair_bytes_) counter->add(bytes);
  return report_;
}

}  // namespace tahoe::task
