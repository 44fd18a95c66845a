#include "task/sim_executor.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>

#include "common/assert.hpp"
#include "memsim/fluid.hpp"
#include "trace/counters.hpp"
#include "trace/telemetry.hpp"

namespace tahoe::task {
namespace {

// Flow tags: tasks use their id; copies use kCopyBit | schedule index.
constexpr std::uint64_t kCopyBit = 1ULL << 63;

struct CopyState {
  bool fired = false;
  bool done = false;
  bool in_flight = false;
  memsim::DeviceId src = memsim::kDram;  ///< captured at start for tracing
};

}  // namespace

SimReport SimExecutor::run(const TaskGraph& graph,
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
  trace::Counter& tasks_executed =
      trace::global_counters().get("sim.tasks_executed");
  trace::TelemetrySampler* const sampler =
      trace::telemetry().enabled() ? &trace::telemetry() : nullptr;

  memsim::FluidSim::Tuning sim_tuning;
  if (options.sim_lazy_threshold != 0) {
    sim_tuning.lazy_threshold = options.sim_lazy_threshold;
  }
  memsim::FluidSim sim(machine.devices.size(), sim_tuning);
  SimReport report;
  report.group_seconds.assign(graph.num_groups(), 0.0);
  report.group_start.assign(graph.num_groups(), 0.0);
  report.task_seconds.assign(graph.num_tasks(), 0.0);

  // Dependence counters.
  std::vector<std::uint32_t> pending(graph.num_tasks());
  for (TaskId id = 0; id < graph.num_tasks(); ++id) {
    pending[id] = graph.num_predecessors(id);
  }

  // Copy machinery: FIFO of fired copies, single copy in flight.
  std::vector<CopyState> copy_state(schedule.size());
  std::deque<std::size_t> copy_fifo;
  std::size_t in_flight_copy = schedule.size();  // sentinel: none
  std::map<memsim::FlowId, std::size_t> copy_flow_to_idx;

  // Group-indexed views of the schedule so entering a group touches only
  // its own copies instead of rescanning the whole schedule (which made
  // large sweep scenarios quadratic in the schedule length). Order within
  // a group is schedule order, preserving the firing FIFO semantics.
  std::vector<std::vector<std::size_t>> fired_at(graph.num_groups());
  std::vector<std::vector<std::size_t>> needed_at(graph.num_groups());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].trigger_group < graph.num_groups()) {
      fired_at[schedule[i].trigger_group].push_back(i);
    }
    if (schedule[i].needed_group < graph.num_groups()) {
      needed_at[schedule[i].needed_group].push_back(i);
    }
  }

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
  auto start_next = [&]() {
    while (in_flight_copy == schedule.size() && !copy_fifo.empty()) {
      const std::size_t idx = copy_fifo.front();
      copy_fifo.pop_front();
      const ScheduledCopy& c = schedule[idx];
      const memsim::DeviceId src = placement.device_of(c.object, c.chunk);
      if (src == c.dst) {
        copy_state[idx].done = true;
        continue;  // nothing to move; try the next queued copy
      }
      const memsim::FlowSpec spec =
          machine.copy_flow(c.bytes, src, c.dst, kCopyBit | idx);
      const memsim::FlowId fid = sim.start_flow(spec);
      copy_flow_to_idx[fid] = idx;
      copy_state[idx].in_flight = true;
      copy_state[idx].src = src;
      in_flight_copy = idx;
      if (tracer != nullptr) {
        tracer->counter(trace::kMigrationTrack, "copy_queue_depth",
                        t0 + sim.now(), copy_fifo.size() + 1);
        trace_inflight(c.dst, c.bytes);
      }
    }
  };

  auto complete_copy = [&](std::size_t idx, double duration, bool hidden) {
    const ScheduledCopy& c = schedule[idx];
    if (tracer != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::EventKind::Complete;
      ev.track = trace::kMigrationTrack;
      ev.ts = t0 + sim.now() - duration;
      ev.dur = duration;
      const std::string label =
          "migrate " + machine.devices[copy_state[idx].src].name + "->" +
          machine.devices[c.dst].name;
      ev.set_name(label.c_str());
      ev.add_arg("bytes", c.bytes);
      ev.add_arg("src_tier", copy_state[idx].src);
      ev.add_arg("dst_tier", c.dst);
      ev.add_arg("object", c.object);
      tracer->emit(ev);
    }
    // Metrics registry: bytes moved per (src, dst) tier pair.
    trace::global_counters()
        .get("migrate.bytes.t" + std::to_string(copy_state[idx].src) + "_t" +
             std::to_string(c.dst))
        .add(c.bytes);
    copy_state[idx].in_flight = false;
    copy_state[idx].done = true;
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
      CopyTally& tally = cp_tally[{c.object, copy_state[idx].src, c.dst}];
      tally.object = c.object;
      tally.src = copy_state[idx].src;
      tally.dst = c.dst;
      ++tally.copies;
      tally.bytes += c.bytes;
      if (hidden) ++tally.hidden;
    }
    TAHOE_ASSERT(in_flight_copy == idx, "copy completion out of order");
    in_flight_copy = schedule.size();
    if (tracer != nullptr) {
      tracer->counter(trace::kMigrationTrack, "copy_queue_depth",
                      t0 + sim.now(), copy_fifo.size());
      trace_inflight(c.dst, 0);
    }
    if (track_occupancy) {
      if (c.dst == memsim::kDram) {
        tier0_bytes += c.bytes;
      } else if (copy_state[idx].src == memsim::kDram) {
        tier0_bytes = tier0_bytes >= c.bytes ? tier0_bytes - c.bytes : 0;
      }
      tracer->counter(trace::kRuntimeTrack, "t0_occupancy_bytes",
                      t0 + sim.now(), tier0_bytes);
    }
    if (options.check_capacity && options.unit_size &&
        c.dst < machine.devices.size()) {
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
  std::vector<std::uint32_t> task_lane;
  std::vector<std::uint32_t> free_lanes;
  if (tracer != nullptr) {
    task_lane.assign(graph.num_tasks(), 0);
    free_lanes.reserve(workers);
    for (std::uint32_t w = workers; w > 0; --w) free_lanes.push_back(w - 1);
  }

  // Build the flow for one task under the current placement.
  auto start_task = [&](TaskId id) {
    const Task& t = graph.task(id);
    std::vector<std::pair<memsim::ObjectTraffic, memsim::DeviceId>> acc;
    acc.reserve(t.accesses.size());
    for (const DataAccess& a : t.accesses) {
      const std::size_t chunk = (a.chunk == kAllChunks) ? 0 : a.chunk;
      // Whole-object accesses to chunked objects are charged per chunk by
      // the workload layer; kAllChunks here refers to unit 0's placement.
      const memsim::DeviceId dev = placement.device_of(a.object, chunk);
      acc.emplace_back(a.traffic, dev);
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
    const memsim::FlowSpec spec =
        machine.task_flow(t.compute_seconds, acc, t.id);
    (void)sim.start_flow(spec);
    if (tracer != nullptr) {
      TAHOE_ASSERT(!free_lanes.empty(), "more running tasks than workers");
      task_lane[id] = free_lanes.back();
      free_lanes.pop_back();
    }
  };

  // ---- main phase loop ----------------------------------------------
  for (GroupId g = 0; g < graph.num_groups(); ++g) {
    const Group& grp = graph.group(g);

    // Fire copies triggered at this group's entry, in schedule order.
    for (const std::size_t i : fired_at[g]) {
      if (!copy_state[i].fired) {
        copy_state[i].fired = true;
        copy_fifo.push_back(i);
      }
    }
    start_next();

    // Wait for the copies this group needs (stall = exposed move cost).
    auto needed_pending = [&]() {
      for (const std::size_t i : needed_at[g]) {
        if (copy_state[i].fired && !copy_state[i].done) return true;
      }
      return false;
    };
    const double wait_begin = sim.now();
    while (needed_pending()) {
      const auto completion = sim.step();
      TAHOE_ASSERT(completion.has_value(),
                   "waiting on copies but no active flows");
      const auto it = copy_flow_to_idx.find(completion->id);
      TAHOE_ASSERT(it != copy_flow_to_idx.end(),
                   "unexpected task completion while only copies should run");
      // A copy the group is blocked on is exposed, not hidden.
      complete_copy(it->second, completion->time - completion->start_time,
                    /*hidden=*/false);
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
    std::vector<TaskId> ready;
    for (TaskId id = grp.first_task; id < grp.last_task; ++id) {
      if (pending[id] == 0) ready.push_back(id);
    }
    std::size_t running = 0;
    std::size_t remaining = grp.size();
    std::size_t next_ready = 0;
    while (remaining > 0) {
      while (running < workers && next_ready < ready.size()) {
        start_task(ready[next_ready++]);
        ++running;
      }
      const auto completion = sim.step();
      TAHOE_ASSERT(completion.has_value(), "group deadlock in simulation");
      if (completion->tag & kCopyBit) {
        const auto it = copy_flow_to_idx.find(completion->id);
        TAHOE_ASSERT(it != copy_flow_to_idx.end(), "unknown copy flow");
        complete_copy(it->second, completion->time - completion->start_time,
                      /*hidden=*/true);
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
        tracer->complete(task_lane[tid],
                         t.label.empty() ? "task" : t.label.c_str(),
                         t0 + completion->start_time,
                         completion->time - completion->start_time, "task",
                         tid, "group", g);
        free_lanes.push_back(task_lane[tid]);
      }
      --running;
      --remaining;
      for (TaskId succ : graph.successors(tid)) {
        TAHOE_ASSERT(pending[succ] > 0, "pred counter underflow");
        if (--pending[succ] == 0 && graph.task(succ).group == g) {
          ready.push_back(succ);
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
  while (in_flight_copy != schedule.size() || !copy_fifo.empty()) {
    start_next();
    if (in_flight_copy == schedule.size()) break;  // all remaining were no-ops
    const auto completion = sim.step();
    TAHOE_ASSERT(completion.has_value(), "copy drain deadlock");
    const auto it = copy_flow_to_idx.find(completion->id);
    TAHOE_ASSERT(it != copy_flow_to_idx.end(), "unknown trailing flow");
    complete_copy(it->second, completion->time - completion->start_time,
                  /*hidden=*/true);
  }

  report.device_busy_seconds.resize(machine.devices.size());
  for (std::size_t d = 0; d < machine.devices.size(); ++d) {
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

}  // namespace tahoe::task
