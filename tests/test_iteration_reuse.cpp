// Repeated-iteration reuse: an iteration whose graph, start residency and
// schedule repeat the previous iteration's takes its outcome instead of
// being simulated again (task::RunMemo, driven by Runtime's per-iteration
// step). Reuse must never show: every report, counter and explain document
// equals what a run with reuse forced off writes. Turning latency
// histograms on forces it off, as any observer of a run's inside does.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/reactive.hpp"
#include "baselines/xmem.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "task/sim_executor.hpp"
#include "trace/counters.hpp"
#include "trace/histogram.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"
#include "workloads/common.hpp"
#include "workloads/nekproxy.hpp"
#include "workloads/synthetic.hpp"

namespace tahoe {
namespace {

// ---- the reuse decision ----------------------------------------------

task::DataAccess stream(hms::ObjectId obj, std::uint64_t elems) {
  task::DataAccess a;
  a.object = obj;
  a.chunk = 0;
  a.traffic.loads = elems;
  a.traffic.footprint = elems * 8;
  return a;
}

/// Two groups over two objects; the schedule swaps them between the tiers
/// (promote 1 for the second group, demote 2), so a run copies across
/// both tier pairs.
struct SmallRun {
  memsim::Machine machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);
  task::TaskGraph graph;
  hms::PlacementMap start;
  std::vector<task::ScheduledCopy> schedule;

  SmallRun() {
    task::GraphBuilder gb;
    for (const char* name : {"a", "b"}) {
      gb.begin_group(name);
      for (int i = 0; i < 4; ++i) {
        task::Task t;
        t.accesses = {stream(1, 1 << 16), stream(2, 1 << 16)};
        gb.add_task(std::move(t));
      }
    }
    graph = gb.build();
    start.set(1, 0, memsim::kNvm);
    start.set(2, 0, memsim::kDram);
    schedule = {{1, 0, 8 * kMiB, memsim::kDram, 0, 1},
                {2, 0, 8 * kMiB, memsim::kNvm, 0, 2}};
  }

  /// A fresh run from `start`, kept in `memo`.
  void keep_in(task::RunMemo& memo,
               const task::SimExecutor::Options& opts = {}) const {
    hms::PlacementMap p = start;
    task::SimExecutor executor;
    memo.keep(start, schedule,
              executor.run(graph, machine, p, schedule, opts), p);
  }
};

TEST(RunMemo, NothingKeptIsAMiss) {
  const SmallRun run;
  const task::RunMemo memo;
  EXPECT_FALSE(memo.repeats(true, run.start, run.schedule, {}));
}

TEST(RunMemo, ExactRepeatIsAHit) {
  const SmallRun run;
  task::RunMemo memo;
  run.keep_in(memo);
  EXPECT_TRUE(memo.repeats(true, run.start, run.schedule, {}));
}

TEST(RunMemo, ARebuiltGraphIsAMiss) {
  const SmallRun run;
  task::RunMemo memo;
  run.keep_in(memo);
  EXPECT_FALSE(memo.repeats(false, run.start, run.schedule, {}));
}

TEST(RunMemo, OneChangedResidencyIsAMiss) {
  const SmallRun run;
  task::RunMemo memo;
  run.keep_in(memo);
  hms::PlacementMap moved = run.start;
  moved.set(2, 0, memsim::kNvm);
  EXPECT_FALSE(memo.repeats(true, moved, run.schedule, {}));
  hms::PlacementMap extra = run.start;
  extra.set(3, 0, memsim::kNvm);
  EXPECT_FALSE(memo.repeats(true, extra, run.schedule, {}));
}

TEST(RunMemo, OneChangedCopyIsAMiss) {
  const SmallRun run;
  task::RunMemo memo;
  run.keep_in(memo);
  const std::vector<std::function<void(task::ScheduledCopy&)>> edits = {
      [](task::ScheduledCopy& c) { c.object = 3; },
      [](task::ScheduledCopy& c) { c.chunk = 1; },
      [](task::ScheduledCopy& c) { ++c.bytes; },
      [](task::ScheduledCopy& c) { c.dst = memsim::kNvm; },
      [](task::ScheduledCopy& c) { c.trigger_group = 1; },
      [](task::ScheduledCopy& c) { c.needed_group = 2; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    std::vector<task::ScheduledCopy> schedule = run.schedule;
    edits[i](schedule[0]);
    EXPECT_FALSE(memo.repeats(true, run.start, schedule, {})) << "edit " << i;
  }
  std::vector<task::ScheduledCopy> shorter = run.schedule;
  shorter.pop_back();
  EXPECT_FALSE(memo.repeats(true, run.start, shorter, {}));
  std::vector<task::ScheduledCopy> longer = run.schedule;
  longer.push_back(longer.back());
  EXPECT_FALSE(memo.repeats(true, run.start, longer, {}));
}

TEST(RunMemo, EveryObserverIsAMiss) {
  const SmallRun run;
  task::RunMemo memo;
  run.keep_in(memo);

  // A tracer that is present but disabled records nothing.
  trace::Tracer tracer;
  task::SimExecutor::Options traced;
  traced.tracer = &tracer;
  EXPECT_TRUE(memo.repeats(true, run.start, run.schedule, traced));
  tracer.set_enabled(true);
  EXPECT_FALSE(memo.repeats(true, run.start, run.schedule, traced));

  trace::set_histograms_enabled(true);
  EXPECT_FALSE(memo.repeats(true, run.start, run.schedule, {}));
  trace::set_histograms_enabled(false);

  trace::TelemetryConfig sampler;
  sampler.stall_intervals = 1000;  // arms the virtual-clock sampler
  trace::telemetry().configure(sampler);
  ASSERT_TRUE(trace::telemetry().enabled());
  EXPECT_FALSE(memo.repeats(true, run.start, run.schedule, {}));
  trace::telemetry().shutdown();

  EXPECT_TRUE(memo.repeats(true, run.start, run.schedule, {}));
}

TEST(RunMemo, ReplayEndsWhereTheRunEndedAndCountsWhatItCounted) {
  const SmallRun run;
  auto& reg = trace::global_counters();
  reg.reset();
  hms::PlacementMap fresh_end = run.start;
  const task::SimReport fresh =
      task::SimExecutor().run(run.graph, run.machine, fresh_end, run.schedule);
  const auto after_one = reg.snapshot_counters();
  EXPECT_GT(fresh.tier_pair_bytes[memsim::kNvm * 2 + memsim::kDram], 0u);
  EXPECT_GT(fresh.tier_pair_bytes[memsim::kDram * 2 + memsim::kNvm], 0u);

  task::RunMemo memo;
  memo.keep(run.start, run.schedule, fresh, fresh_end);
  reg.reset();
  hms::PlacementMap p = run.start;
  const task::SimReport& replayed = memo.replay(p, run.graph.num_tasks());
  EXPECT_EQ(p, fresh_end);
  EXPECT_EQ(replayed.makespan, fresh.makespan);
  EXPECT_EQ(replayed.task_seconds, fresh.task_seconds);
  EXPECT_EQ(reg.snapshot_counters(), after_one);
}

// ---- reuse inside Runtime ----------------------------------------------

using AppFactory = std::function<std::unique_ptr<core::Application>()>;

struct NamedApp {
  std::string name;
  AppFactory make;
};

/// Every FIG-9 app, heat, cholesky, the two-object drift probe and a
/// nekproxy whose advection traffic doubles at iteration 5.
std::vector<NamedApp> grid_apps() {
  std::vector<NamedApp> apps;
  std::vector<std::string> names = workloads::workload_names();
  names.push_back("heat");
  names.push_back("cholesky");
  for (const std::string& name : names) {
    apps.push_back({name, [name] {
                      return workloads::make_workload(name,
                                                      workloads::Scale::Test);
                    }});
  }
  apps.push_back({"drift", [] {
                    return std::make_unique<workloads::DriftApp>(
                        workloads::DriftApp::Config{24 * kMiB, 4, 10, 5});
                  }});
  apps.push_back({"nekproxy-drift", [] {
                    workloads::NekProxyApp::Config c =
                        workloads::NekProxyApp::config_for(
                            workloads::Scale::Test);
                    c.drift_at = 5;
                    return std::make_unique<workloads::NekProxyApp>(c);
                  }});
  return apps;
}

struct NamedMachine {
  std::string name;
  memsim::Machine machine;
};

/// platform-a and the Optane preset with a DRAM tier below the Test-scale
/// working sets, and the perf ledger's four-tier cxl4t preset.
std::vector<NamedMachine> grid_machines() {
  return {
      {"platform-a",
       memsim::machines::platform_a(
           memsim::devices::nvm_bw_fraction(memsim::devices::dram(2 * kMiB),
                                            0.5, 4 * kGiB),
           2 * kMiB)},
      {"optane", memsim::machines::optane_platform(2 * kMiB)},
      {"cxl4t", memsim::machines::cxl_platform(64 * kMiB, 256 * kMiB,
                                               512 * kMiB, 16 * kGiB)},
  };
}

struct Serialized {
  std::string report;
  std::string explain;
  std::size_t migrations = 0;
};

/// Run `app` under `policy` ("tahoe", "xmem", "reactive-lru",
/// "fastest-tier-only" or "capacity-tier-only") and serialize the report,
/// with the counter snapshot, and the explain document. The counters are
/// zeroed first, so the snapshot holds this run's counts alone.
Serialized run_serialized(const memsim::Machine& machine,
                          const core::ModelConstants& constants,
                          bool attribution, const AppFactory& make_app,
                          const std::string& policy) {
  core::RuntimeConfig config;
  config.machine = machine;
  config.backing = hms::Backing::Virtual;
  config.fixed_decision_seconds = 0.0;
  config.attribution = attribution;
  core::Runtime rt(config);
  trace::global_counters().reset();
  const std::unique_ptr<core::Application> app = make_app();
  core::RunReport report;
  if (policy == "tahoe") {
    core::TahoePolicy p(constants);
    report = rt.run(*app, p);
  } else if (policy == "xmem") {
    baselines::XMemPolicy p;
    report = rt.run(*app, p);
  } else if (policy == "reactive-lru") {
    baselines::ReactiveLruPolicy p;
    report = rt.run(*app, p);
  } else if (policy == "fastest-tier-only") {
    report = rt.run_static(*app, machine.fastest_tier());
  } else {
    report = rt.run_static(*app, machine.capacity_tier());
  }
  std::ostringstream r;
  report.write_json(r, trace::global_counters().snapshot_counters());
  std::ostringstream e;
  report.write_explain_json(e);
  return {r.str(), e.str(), report.migrations};
}

TEST(IterationReuse, ReportsMatchWithReuseForcedOff) {
  const std::vector<std::string> policies = {
      "tahoe", "xmem", "reactive-lru", "fastest-tier-only",
      "capacity-tier-only"};
  std::size_t runs = 0;
  std::size_t migrating = 0;
  for (const NamedMachine& m : grid_machines()) {
    const core::ModelConstants constants =
        core::calibrate(m.machine).to_constants();
    for (const bool attribution : {false, true}) {
      for (const NamedApp& app : grid_apps()) {
        for (const std::string& policy : policies) {
          const std::string what = m.name + " / " + app.name + " / " +
                                   policy +
                                   (attribution ? " / attribution" : "");
          ASSERT_FALSE(trace::histograms_enabled());
          const Serialized on =
              run_serialized(m.machine, constants, attribution, app.make,
                             policy);
          trace::set_histograms_enabled(true);  // forces reuse off
          const Serialized off =
              run_serialized(m.machine, constants, attribution, app.make,
                             policy);
          trace::set_histograms_enabled(false);
          EXPECT_EQ(on.report, off.report) << what;
          EXPECT_EQ(on.explain, off.explain) << what;
          ++runs;
          if (on.migrations > 0) ++migrating;
        }
      }
    }
  }
  EXPECT_EQ(runs, 3u * 2u * 11u * 5u);
  // The grid exercises schedules that move data, not just fixed residency.
  EXPECT_GT(migrating, runs / 4);
  trace::global_counters().reset();
}

TEST(IterationReuse, TracedStationaryRunEmitsOneSpanPerTask) {
  trace::Tracer& tracer = trace::global();
  (void)tracer.drain();
  const NamedMachine m = grid_machines()[0];
  core::RuntimeConfig config;
  config.machine = m.machine;
  config.backing = hms::Backing::Virtual;
  core::Runtime rt(config);
  auto app = workloads::make_workload("cg", workloads::Scale::Test);
  core::TahoePolicy policy(core::calibrate(m.machine).to_constants());
  trace::global_counters().reset();
  tracer.set_enabled(true);
  const core::RunReport report = rt.run(*app, policy);
  tracer.set_enabled(false);
  const std::vector<trace::TraceEvent> events = tracer.drain();
  ASSERT_EQ(report.trace_dropped_events, 0u);

  std::uint64_t task_spans = 0;
  for (const trace::TraceEvent& ev : events) {
    if (ev.kind == trace::EventKind::Complete && ev.num_args > 0 &&
        std::strcmp(ev.arg_key[0], "task") == 0) {
      ++task_spans;
    }
  }
  std::uint64_t executed = 0;
  for (const auto& [name, value] : trace::global_counters().snapshot()) {
    if (name == "sim.tasks_executed") executed = value;
  }
  EXPECT_GT(report.iteration_seconds.size(), 2u);
  EXPECT_EQ(task_spans, report.tasks_executed);
  EXPECT_EQ(task_spans, executed);
  trace::global_counters().reset();
}

TEST(IterationReuse, CountersEndEqualWithReuseOnAndOff) {
  // Two-tier and four-tier plans: sim.tasks_executed and every
  // migrate.bytes.t<src>_t<dst> counter, registered or not, end the same.
  for (const NamedMachine& m : grid_machines()) {
    const core::ModelConstants constants =
        core::calibrate(m.machine).to_constants();
    for (const std::string app : {"cg", "lu", "nekproxy"}) {
      auto counters = [&](bool reuse) {
        trace::set_histograms_enabled(!reuse);
        const AppFactory make = [&app] {
          return workloads::make_workload(app, workloads::Scale::Test);
        };
        (void)run_serialized(m.machine, constants, false, make, "tahoe");
        trace::set_histograms_enabled(false);
        std::vector<std::pair<std::string, std::uint64_t>> out;
        for (const auto& [name, value] :
             trace::global_counters().snapshot_counters()) {
          if (name == "sim.tasks_executed" ||
              name.rfind("migrate.bytes.", 0) == 0) {
            out.emplace_back(name, value);
          }
        }
        return out;
      };
      const auto on = counters(true);
      const auto off = counters(false);
      EXPECT_EQ(on, off) << m.name << " / " << app;
      ASSERT_FALSE(on.empty());
    }
  }
  trace::global_counters().reset();
}

}  // namespace
}  // namespace tahoe
