#include "core/runtime.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "core/adaptivity.hpp"
#include "core/initial_placement.hpp"
#include "core/profiles.hpp"
#include "hms/migration.hpp"
#include "hms/space_manager.hpp"
#include "task/executor.hpp"
#include "task/sim_executor.hpp"
#include "trace/counters.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

namespace tahoe::core {

namespace {

/// Iterations profiled before each decision, and again after each
/// re-profile.
constexpr std::size_t kProfileIterations = 2;
/// Modeled cost per collected hardware sample (counter readout).
constexpr double kSampleCostSeconds = 50e-9;
/// Modeled cost of the queue-status check at each phase boundary.
constexpr double kSyncCostSeconds = 2e-6;
/// Extra attempts to reserve space for a planned fill before its object is
/// pinned to the capacity tier and the policy re-plans.
constexpr int kReservationRetries = 3;

/// An empty report of `app` under `policy`, labelled with the machine's
/// tiers.
RunReport new_report(const Application& app, std::string policy,
                     const memsim::Machine& machine) {
  RunReport report;
  report.workload = app.name();
  report.policy = std::move(policy);
  report.tier_names.reserve(machine.devices.size());
  for (const memsim::DeviceModel& d : machine.devices) {
    report.tier_names.push_back(d.name);
  }
  return report;
}

/// Allocation name of object `id`, or "object-<id>" for an id the
/// inventory does not hold.
std::string object_name(const std::vector<ObjectInfo>& objects,
                        std::uint64_t id) {
  for (const ObjectInfo& o : objects) {
    if (static_cast<std::uint64_t>(o.id) == id) return o.name;
  }
  return "object-" + std::to_string(id);
}

/// Collect the planner-facing object inventory from a registry.
std::vector<ObjectInfo> collect_objects(const hms::ObjectRegistry& registry) {
  std::vector<ObjectInfo> out;
  for (const hms::ObjectId id : registry.live_objects()) {
    const hms::DataObject& obj = registry.get(id);
    ObjectInfo info;
    info.id = id;
    info.name = std::string(obj.name());
    info.static_ref_estimate = obj.static_ref_estimate;
    info.chunk_bytes.reserve(obj.num_chunks());
    for (const hms::Chunk& c : obj.chunks()) info.chunk_bytes.push_back(c.bytes);
    out.push_back(std::move(info));
  }
  return out;
}

/// Replay the planned schedule against a hypothetical occupancy of every
/// constrained tier and return the first object whose fill cannot reserve
/// space even after kReservationRetries extra attempts (injected vetoes
/// model racing consumers of the tier). Returns kInvalidObject when the
/// whole schedule reserves cleanly. On two-tier machines this makes exactly
/// the same try_reserve calls in the same order as the original single-tier
/// replay, so seeded fault-injection sequences are preserved.
hms::ObjectId first_unreservable(
    const PlanInputs& in, const std::vector<task::ScheduledCopy>& schedule,
    const memsim::Machine& machine) {
  const memsim::TierId cap_tier = machine.capacity_tier();
  std::vector<hms::SpaceManager> spaces;
  spaces.reserve(cap_tier);
  for (memsim::TierId t = 0; t < cap_tier; ++t) {
    spaces.emplace_back(machine.tier(t).capacity);
  }
  for (const auto& [unit, dev] : in.current.entries()) {
    if (dev != cap_tier) {
      (void)spaces[dev].add(unit.first, unit.second,
                            in.unit_bytes(unit.first, unit.second));
    }
  }
  // Walk in trigger order (stable, so same-group evictions precede fills
  // exactly as the schedule lays them out).
  std::vector<std::size_t> order(schedule.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&schedule](std::size_t a, std::size_t b) {
                     return schedule[a].trigger_group <
                            schedule[b].trigger_group;
                   });
  for (const std::size_t i : order) {
    const task::ScheduledCopy& c = schedule[i];
    if (c.dst == cap_tier) {
      for (hms::SpaceManager& s : spaces) s.remove(c.object, c.chunk);
      continue;
    }
    if (spaces[c.dst].resident(c.object, c.chunk)) continue;
    // A fill onto one constrained tier vacates any other constrained tier
    // the unit occupied (moves between constrained tiers free the source).
    for (memsim::TierId t = 0; t < cap_tier; ++t) {
      if (t != c.dst) spaces[t].remove(c.object, c.chunk);
    }
    bool reserved = false;
    for (int attempt = 0; attempt <= kReservationRetries && !reserved;
         ++attempt) {
      reserved = spaces[c.dst].try_reserve(c.object, c.chunk, c.bytes);
    }
    if (!reserved) return c.object;
  }
  return hms::kInvalidObject;
}

/// One simulated iteration: the step run() and run_fixed() share.
/// Iterative applications re-instantiate the same task graph every
/// iteration, so build() offers the application the previous graph to
/// keep, and simulate() takes the previous outcome when the kept graph
/// also starts from the same residency under the same schedule and
/// nothing records from inside the run (task::RunMemo).
class SimStep {
 public:
  SimStep(const memsim::Machine& machine, task::SimExecutor::Options options)
      : machine_(machine), options_(std::move(options)) {}

  /// Build iteration `iter` of `app`; the graph stays valid until the next
  /// build().
  const task::TaskGraph& build(Application& app, std::size_t iter) {
    task::GraphBuilder builder(std::move(graph_));
    app.build_iteration(builder, iter);
    memo_has_graph_ = memo_has_graph_ && builder.repeats_previous();
    graph_ = builder.build();
    return graph_;
  }

  /// Simulate the last built graph from `placement`, which is left in its
  /// end state, under `schedule`, with trace timestamps offset by
  /// `vclock`. The report stays valid until the next simulate().
  const task::SimReport& simulate(
      hms::PlacementMap& placement,
      const std::vector<task::ScheduledCopy>& schedule, double vclock) {
    options_.trace_time_offset = vclock;
    if (memo_.repeats(memo_has_graph_, placement, schedule, options_)) {
      return memo_.replay(placement, graph_.num_tasks());
    }
    hms::PlacementMap start = placement;
    const task::SimReport& report =
        executor_.run(graph_, machine_, placement, schedule, options_);
    memo_has_graph_ = true;
    return memo_.keep(std::move(start), schedule, report, placement);
  }

 private:
  const memsim::Machine& machine_;
  task::SimExecutor::Options options_;
  task::SimExecutor executor_;
  task::TaskGraph graph_;
  task::RunMemo memo_;
  /// Whether memo_ holds a run of graph_.
  bool memo_has_graph_ = false;
};

}  // namespace

PlanDecision Runtime::decide_validated(Policy& policy, PlanInputs inputs,
                                       std::vector<hms::ObjectId>& pinned,
                                       RunReport& report,
                                       std::size_t iteration) {
  const auto record_plan = [&](const PlanDecision& decision, int round) {
    PlanRecord rec;
    rec.iteration = iteration;
    rec.replan_round = round;
    rec.strategy = decision.strategy;
    rec.local_gain = decision.local_gain;
    rec.global_gain = decision.global_gain;
    rec.predicted_gain = decision.predicted_gain;
    rec.schedule_copies = decision.schedule.size();
    rec.pinned_nvm.reserve(pinned.size());
    for (const hms::ObjectId id : pinned) {
      rec.pinned_nvm.push_back(object_name(inputs.objects, id));
    }
    rec.candidates = decision.provenance;
    for (PlanCandidate& c : rec.candidates) {
      c.object = object_name(inputs.objects, c.object_id);
    }
    report.plans.push_back(std::move(rec));
  };

  // Bounded: each round pins at least one more object, and a plan with
  // everything pinned schedules no fills at all.
  constexpr int kMaxRounds = 8;
  for (int round = 0;; ++round) {
    inputs.pinned_nvm = pinned;
    PlanDecision decision = policy.decide(inputs);
    if (config_.fixed_decision_seconds) {
      decision.decision_seconds = *config_.fixed_decision_seconds;
    }
    record_plan(decision, round);
    const hms::ObjectId offender =
        first_unreservable(inputs, decision.schedule, config_.machine);
    if (offender == hms::kInvalidObject) return decision;
    if (round + 1 >= kMaxRounds) {
      // Last resort: keep the plan but strip the offender's fills so the
      // schedule stays capacity-safe.
      const memsim::TierId cap_tier = config_.machine.capacity_tier();
      std::erase_if(decision.schedule,
                    [offender, cap_tier](const task::ScheduledCopy& c) {
                      return c.object == offender && c.dst != cap_tier;
                    });
      TAHOE_WARN("plan validation gave up after " << kMaxRounds
                                                  << " rounds; dropping DRAM "
                                                     "fills of object "
                                                  << offender);
      return decision;
    }
    pinned.push_back(offender);
    ++report.plans_degraded;
    trace::global_counters().get("plan.degraded").increment();
    TAHOE_WARN("DRAM reservation for object "
               << offender << " failed " << (kReservationRetries + 1)
               << " times; pinning it to NVM and re-planning");
  }
}

Runtime::Runtime(RuntimeConfig config) : config_(std::move(config)) {
  TAHOE_REQUIRE(config_.machine.devices.size() >= 2,
                "machine must have DRAM and NVM tiers");
}

Runtime::AppState Runtime::prepare(Application& app, bool huge_tiers) {
  const memsim::Machine& m = config_.machine;
  std::vector<std::uint64_t> caps;
  caps.reserve(m.devices.size());
  for (const memsim::DeviceModel& d : m.devices) caps.push_back(d.capacity);
  if (huge_tiers) {
    // Static baselines: the pinned tier must hold the full footprint.
    const std::uint64_t big =
        *std::max_element(caps.begin(), caps.end());
    for (std::uint64_t& c : caps) c = big;
  }

  AppState state;
  state.registry = std::make_unique<hms::ObjectRegistry>(caps, config_.backing);
  hms::ChunkingPolicy chunking;
  chunking.dram_capacity =
      config_.chunking ? m.tier(m.fastest_tier()).capacity : 0;
  app.setup(*state.registry, chunking);
  TAHOE_REQUIRE(state.registry->num_objects() > 0,
                "application allocated no data objects");
  state.objects = collect_objects(*state.registry);
  for (const ObjectInfo& o : state.objects) {
    for (std::size_t c = 0; c < o.chunk_bytes.size(); ++c) {
      state.placement.set(o.id, c, m.capacity_tier());
    }
  }
  return state;
}

RunReport Runtime::run(Application& app, Policy& policy) {
  const memsim::Machine& machine = config_.machine;
  const std::uint64_t faults_before = fault::global().total_injected();
  const std::uint64_t dropped_before = trace::global().dropped();
  trace::telemetry().begin_run("run:" + app.name() + "/" + policy.name());
  AppState state = prepare(app, /*huge_tiers=*/false);

  RunReport report = new_report(app, policy.name(), machine);
  // Objects demoted by the degradation path; persists across re-profiles
  // so a repeatedly failing object is not retried forever.
  std::vector<hms::ObjectId> pinned;

  // Initial placement: free at allocation time.
  if (config_.initial_placement) {
    for (const auto& [u, t] : choose_initial_tiers(state.objects, machine)) {
      state.placement.set(u.object, u.chunk, t);
    }
  }

  Profiler profiler(memsim::Sampler(machine.sample_interval, machine.cpu_hz,
                                    machine.seed));
  AdaptiveMonitor monitor;
  std::vector<task::ScheduledCopy> schedule;
  std::string strategy;
  std::size_t profiling_left =
      policy.needs_profiling() ? kProfileIterations : 0;
  bool decided = false;
  std::size_t enforced_since_decision = 0;

  task::SimExecutor::Options opts;
  opts.unit_size = [&state](hms::ObjectId id, std::size_t chunk) {
    return state.registry->get(id).chunk(chunk).bytes;
  };
  opts.attribution = config_.attribution;

  // Attribution accumulators (filled only when config_.attribution).
  std::map<std::pair<std::string, std::string>, AttributionRow> attr_rows;
  std::map<std::string, ObjectMigrationRow> obj_rows;
  std::vector<std::string> group_names;

  // Tracing: the simulated timeline is laid out on one virtual clock that
  // accumulates iteration makespans, so a full run reads left-to-right in
  // chrome://tracing. All instrumentation vanishes when tracing is off.
  trace::Tracer& tracer = trace::global();
  const bool traced = tracer.enabled();
  double vclock = 0.0;
  if (traced) {
    trace::name_standard_tracks(machine.workers);
    opts.tracer = &tracer;
  }
  SimStep step(machine, std::move(opts));

  // Plan on `graph` and install the schedule that every later simulated
  // iteration replays. `profiles` is null for offline policies; `at` is the
  // decision's time on the trace's virtual clock.
  const auto decide = [&](const task::TaskGraph& graph,
                          const PhaseProfiles* profiles, std::size_t iter,
                          double at) {
    PlanInputs inputs;
    inputs.graph = &graph;
    inputs.machine = &machine;
    inputs.profiles = profiles;
    inputs.objects = state.objects;
    inputs.current = state.placement;
    PlanDecision decision =
        decide_validated(policy, std::move(inputs), pinned, report, iter);
    schedule = std::move(decision.schedule);
    strategy = decision.strategy;
    report.decision_seconds += decision.decision_seconds;
    report.overhead_seconds += decision.decision_seconds;
    decided = true;
    enforced_since_decision = 0;
    if (traced) {
      const std::string label = "decide " + strategy;
      tracer.instant(trace::kPlannerTrack, label.c_str(), at, "copies",
                     schedule.size(), "cost_us",
                     static_cast<std::uint64_t>(decision.decision_seconds *
                                                1e6));
    }
    TAHOE_DEBUG("decision for " << app.name() << ": " << strategy << ", "
                                << schedule.size() << " copies");
  };

  const std::size_t iterations = app.iterations();
  TAHOE_REQUIRE(iterations >= 1, "application declares no iterations");

  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const task::TaskGraph& graph = step.build(app, iter);

    // Offline policies (no profiling) decide on the first iteration's
    // graph, before it runs.
    if (!decided && profiling_left == 0) decide(graph, nullptr, iter, vclock);

    const std::uint64_t samples_before = profiler.samples_taken();
    const task::SimReport& sim =
        step.simulate(state.placement, schedule, vclock);
    report.iteration_seconds.push_back(sim.makespan);
    report.compute_seconds += sim.makespan;
    report.tasks_executed += graph.num_tasks();
    report.bytes_moved += sim.bytes_copied;
    // Count only copies that moved data (no-op copies are free).
    report.migrations += sim.copies_done;
    report.copy_busy_seconds += sim.copy_busy_seconds;
    report.stall_seconds += sim.stall_seconds;
    report.overhead_seconds +=
        static_cast<double>(graph.num_groups()) * kSyncCostSeconds;

    if (config_.attribution) {
      if (group_names.size() < graph.num_groups()) {
        group_names.resize(graph.num_groups());
      }
      for (task::GroupId g = 0; g < graph.num_groups(); ++g) {
        group_names[g] = graph.group(g).name;
      }
      for (const task::AccessTally& t : sim.access_tallies) {
        const std::string gname = t.group < group_names.size()
                                      ? group_names[t.group]
                                      : std::to_string(t.group);
        AttributionRow& row =
            attr_rows[{gname, object_name(state.objects, t.object)}];
        row.tasks += t.tasks;
        if (row.tier_loads.size() < machine.devices.size()) {
          row.tier_loads.resize(machine.devices.size(), 0);
          row.tier_stores.resize(machine.devices.size(), 0);
        }
        row.tier_loads[t.device] += t.loads;
        row.tier_stores[t.device] += t.stores;
      }
      for (const task::CopyTally& t : sim.copy_tallies) {
        ObjectMigrationRow& row =
            obj_rows[object_name(state.objects, t.object)];
        if (t.dst < t.src) {  // toward a faster tier
          row.promotions += t.copies;
          row.bytes_promoted += t.bytes;
        } else {
          row.evictions += t.copies;
          row.bytes_evicted += t.bytes;
        }
        row.copies_hidden += t.hidden;
        TierFlowRow* flow = nullptr;
        for (TierFlowRow& f : row.flows) {
          if (f.src == t.src && f.dst == t.dst) {
            flow = &f;
            break;
          }
        }
        if (flow == nullptr) {
          row.flows.push_back(
              TierFlowRow{static_cast<std::uint32_t>(t.src),
                          static_cast<std::uint32_t>(t.dst), 0, 0});
          flow = &row.flows.back();
        }
        flow->copies += t.copies;
        flow->bytes += t.bytes;
      }
    }

    if (profiling_left > 0) {
      profiler.observe(graph, sim);
      report.overhead_seconds +=
          static_cast<double>(profiler.samples_taken() - samples_before) *
          kSampleCostSeconds;
      if (traced) {
        tracer.complete(trace::kPlannerTrack, "profile", vclock, sim.makespan,
                        "iteration", iter, "samples",
                        profiler.samples_taken() - samples_before);
      }
      if (--profiling_left == 0) {
        decide(graph, &profiler.profiles(), iter, vclock + sim.makespan);
      }
    } else if (decided) {
      ++enforced_since_decision;
      if (config_.adaptive && policy.needs_profiling()) {
        if (enforced_since_decision == 2) {
          // The first enforced iteration pays one-time migrations; the
          // second is the steady-state baseline.
          monitor.set_baseline(sim.group_seconds);
        } else if (enforced_since_decision > 2 && monitor.has_baseline() &&
                   monitor.deviates(sim.group_seconds)) {
          ++report.reprofiles;
          trace::global_counters().get("runtime.reprofiles").increment();
          profiler.reset();
          profiling_left = kProfileIterations;
          decided = false;
          if (traced) {
            tracer.instant(trace::kPlannerTrack, "reprofile",
                           vclock + sim.makespan, "iteration", iter);
          }
          TAHOE_DEBUG("workload variation detected at iteration "
                      << iter << "; re-profiling");
        }
      }
    }

    vclock += sim.makespan;
    if (traced) {
      // Per-iteration counter snapshot: cumulative run totals plus every
      // registered metric, all on the runtime track.
      tracer.counter(trace::kRuntimeTrack, "bytes_moved", vclock,
                     report.bytes_moved);
      tracer.counter(trace::kRuntimeTrack, "migrations", vclock,
                     report.migrations);
      tracer.counter(trace::kRuntimeTrack, "stall_us", vclock,
                     static_cast<std::uint64_t>(report.stall_seconds * 1e6));
      for (const auto& [name, value] : trace::global_counters().snapshot()) {
        tracer.counter(trace::kRuntimeTrack, name.c_str(), vclock, value);
      }
    }
  }

  report.strategy = strategy;
  report.failed_no_space = state.registry->stats().failed_no_space;
  report.faults_injected = fault::global().total_injected() - faults_before;
  report.trace_dropped_events = trace::global().dropped() - dropped_before;
  trace::sync_dropped_events_counter();

  if (config_.attribution) {
    // Fold the profiler's view in: raw sampled counts and their
    // interval-corrected estimates, so exports show what the planner saw
    // next to the ground truth.
    const PhaseProfiles& prof = profiler.profiles();
    for (task::GroupId g = 0; g < prof.groups.size(); ++g) {
      const std::string gname =
          g < group_names.size() ? group_names[g] : std::to_string(g);
      for (const auto& [unit, counts] : prof.groups[g].units) {
        AttributionRow& row =
            attr_rows[{gname, object_name(state.objects, unit.object)}];
        row.sampled_loads += counts.loads;
        row.sampled_stores += counts.stores;
        row.est_loads += static_cast<std::uint64_t>(
            counts.est_loads(machine.sample_interval));
        row.est_stores += static_cast<std::uint64_t>(
            counts.est_stores(machine.sample_interval));
      }
    }
    report.attribution.reserve(attr_rows.size());
    for (auto& [key, row] : attr_rows) {
      row.task_type = key.first;
      row.object = key.second;
      report.attribution.push_back(std::move(row));
    }
    report.objects.reserve(obj_rows.size());
    for (auto& [name, row] : obj_rows) {
      row.object = name;
      std::sort(row.flows.begin(), row.flows.end(),
                [](const TierFlowRow& a, const TierFlowRow& b) {
                  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                });
      report.objects.push_back(std::move(row));
    }
  }
  return report;
}

RunReport Runtime::run_fixed(
    Application& app, std::string policy,
    const std::function<memsim::TierId(const ObjectInfo&)>& tier_of) {
  const memsim::Machine& machine = config_.machine;
  AppState state = prepare(app, /*huge_tiers=*/true);
  for (const ObjectInfo& o : state.objects) {
    const memsim::TierId tier = tier_of(o);
    for (std::size_t c = 0; c < o.chunk_bytes.size(); ++c) {
      state.placement.set(o.id, c, tier);
    }
  }
  RunReport report = new_report(app, std::move(policy), machine);

  // With no copies to run, the executor never compares a tier's contents
  // with its capacity, so the machine needs no enlarged tier.
  task::SimExecutor::Options opts;
  trace::Tracer& tracer = trace::global();
  const std::uint64_t dropped_before = tracer.dropped();
  trace::telemetry().begin_run("run:" + app.name() + "/" + report.policy);
  double vclock = 0.0;
  if (tracer.enabled()) {
    trace::name_standard_tracks(machine.workers);
    opts.tracer = &tracer;
  }
  SimStep step(machine, std::move(opts));
  for (std::size_t iter = 0; iter < app.iterations(); ++iter) {
    const task::TaskGraph& graph = step.build(app, iter);
    const task::SimReport& sim = step.simulate(state.placement, {}, vclock);
    vclock += sim.makespan;
    report.iteration_seconds.push_back(sim.makespan);
    report.compute_seconds += sim.makespan;
    report.tasks_executed += graph.num_tasks();
  }
  report.trace_dropped_events = tracer.dropped() - dropped_before;
  trace::sync_dropped_events_counter();
  return report;
}

RunReport Runtime::run_static(Application& app, memsim::DeviceId tier) {
  const memsim::Machine& machine = config_.machine;
  TAHOE_REQUIRE(tier < machine.devices.size(), "tier out of range");
  std::string policy = "tier" + std::to_string(tier) + "-only";
  if (machine.num_tiers() == 2) {
    policy = tier == memsim::kDram ? "dram-only" : "nvm-only";
  }
  return run_fixed(app, std::move(policy),
                   [tier](const ObjectInfo&) { return tier; });
}

RunReport Runtime::run_pinned(Application& app,
                              const std::vector<std::string>& dram_objects) {
  const memsim::TierId fast = config_.machine.fastest_tier();
  const memsim::TierId cap = config_.machine.capacity_tier();
  return run_fixed(app, "pinned", [&](const ObjectInfo& o) {
    return std::find(dram_objects.begin(), dram_objects.end(), o.name) !=
                   dram_objects.end()
               ? fast
               : cap;
  });
}

RunReport Runtime::run_real_report(
    Application& app, const std::vector<task::ScheduledCopy>& schedule,
    unsigned workers) {
  TAHOE_REQUIRE(config_.backing == hms::Backing::Real,
                "run_real_report requires real backing");
  const std::uint64_t faults_before = fault::global().total_injected();
  const std::uint64_t dropped_before = trace::global().dropped();
  // Real-executor runs have no virtual clock; the sampler's wall-clock
  // thread (if configured) does the ticking, this just marks the phase.
  trace::telemetry().begin_run("real:" + app.name());
  AppState state = prepare(app, /*huge_tiers=*/false);
  trace::name_standard_tracks(workers);
  hms::MigrationEngine engine(*state.registry,
                              hms::MigrationEngine::Mode::HelperThread);
  const auto executor = std::make_unique<task::Executor>(workers);
  const double deadline = config_.migration_wait_deadline_seconds;

  for (std::size_t iter = 0; iter < app.iterations(); ++iter) {
    task::GraphBuilder builder;
    app.build_iteration(builder, iter);
    const task::TaskGraph graph = builder.build();
    executor->run(graph, [&](task::GroupId g) {
      // Fire this group's proactive copies, then wait for the ones the
      // group needs — the paper's phase-boundary protocol. With a deadline
      // configured, a stalled helper cannot hold the application hostage:
      // requests the group is already past are cancelled and the tasks
      // simply read from the source tier.
      for (const task::ScheduledCopy& c : schedule) {
        if (c.trigger_group == g) {
          engine.enqueue(hms::MigrationRequest{c.object, c.chunk, c.dst,
                                               c.needed_group});
        }
      }
      if (deadline > 0.0) {
        if (!engine.wait_tag_for(g, deadline)) {
          const std::size_t n = engine.cancel_tag(g);
          TAHOE_WARN("group " << g << " migration wait exceeded " << deadline
                              << " s; cancelled " << n
                              << " queued request(s) and proceeding");
          // The one in-flight copy (if any) cannot be cancelled safely;
          // it is a single bounded memcpy, so finish the protocol on it.
          engine.wait_tag(g);
        }
      } else {
        engine.wait_tag(g);
      }
    });
  }
  engine.drain();

  RunReport report = new_report(app, "real", config_.machine);
  report.verified = app.verify(*state.registry);
  const hms::MigrationStats& ms = state.registry->stats();
  report.migrations = ms.migrations;
  report.bytes_moved = ms.bytes_moved;
  report.failed_no_space = ms.failed_no_space;
  report.migrations_retried = engine.retried();
  report.migrations_aborted = engine.aborted();
  report.migrations_cancelled = engine.cancelled();
  report.plans_degraded = engine.degraded_objects().size();
  report.faults_injected = fault::global().total_injected() - faults_before;
  report.tasks_executed = executor->stats().tasks_run;
  report.trace_dropped_events = trace::global().dropped() - dropped_before;
  trace::sync_dropped_events_counter();
  return report;
}

}  // namespace tahoe::core
