// Chaos matrix (satellite of the fault-injection PR): every placement
// policy crossed with every injected fault scenario, on heat and CG.
// Simulated runs must complete with a self-consistent report; real runs
// must still pass their residual checks — graceful degradation, never
// wrong answers. The real path's deadline cancel and plan validation's
// last resort are checked on their own, and so is a real run traced with
// histograms on, where workers and the migration helper record at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "baselines/reactive.hpp"
#include "baselines/xmem.hpp"
#include "common/fault.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "trace/counters.hpp"
#include "trace/histogram.hpp"
#include "trace/trace.hpp"
#include "workloads/common.hpp"
#include "workloads/heat.hpp"

namespace tahoe {
namespace {

struct Scenario {
  std::string name;
  fault::FaultConfig cfg;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  {
    Scenario s;
    s.name = "clean";
    out.push_back(s);  // all-zero rates: injector disarmed
  }
  {
    Scenario s;
    s.name = "arena";
    s.cfg.arena_exhaustion = 0.05;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "alloc";
    s.cfg.alloc_failure = 0.15;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "abort";
    s.cfg.migration_abort = 0.30;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "reserve";
    s.cfg.dram_reservation = 0.50;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "stall";
    s.cfg.copy_stall = 0.30;
    s.cfg.copy_stall_seconds = 1e-4;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "noise";
    s.cfg.sampler_noise = 0.50;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "chaos";
    s.cfg.arena_exhaustion = 0.02;
    s.cfg.alloc_failure = 0.05;
    s.cfg.migration_abort = 0.15;
    s.cfg.dram_reservation = 0.25;
    s.cfg.copy_stall = 0.10;
    s.cfg.copy_stall_seconds = 1e-4;
    s.cfg.sampler_noise = 0.25;
    out.push_back(s);
  }
  return out;
}

const Scenario& scenario_by_name(const std::string& name) {
  static const std::vector<Scenario> all = scenarios();
  for (const Scenario& s : all) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "unknown scenario " << name;
  return all.front();
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> out;
  for (const Scenario& s : scenarios()) out.push_back(s.name);
  return out;
}

void arm(const Scenario& s) {
  if (s.cfg.any()) {
    fault::global().configure(s.cfg);
  } else {
    fault::global().disarm();
  }
}

core::RuntimeConfig base_config(hms::Backing backing) {
  core::RuntimeConfig c;
  c.machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);
  c.backing = backing;
  return c;
}

std::unique_ptr<core::Application> make_app(const std::string& name) {
  if (name == "heat") {
    return std::make_unique<workloads::HeatApp>(
        workloads::HeatApp::config_for(workloads::Scale::Test));
  }
  return workloads::make_workload(name, workloads::Scale::Test);
}

class FaultMatrix
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, std::string>> {
 protected:
  void TearDown() override { fault::global().disarm(); }
};

TEST_P(FaultMatrix, SimulatedRunSurvivesAndReportsConsistently) {
  const auto& [workload, policy_name, scenario_name] = GetParam();
  const Scenario& scenario = scenario_by_name(scenario_name);
  arm(scenario);

  auto app = make_app(workload);
  core::Runtime rt(base_config(hms::Backing::Virtual));
  core::RunReport report;
  if (policy_name == "dram-only") {
    report = rt.run_static(*app, memsim::kDram);
  } else if (policy_name == "nvm-only") {
    report = rt.run_static(*app, memsim::kNvm);
  } else if (policy_name == "xmem") {
    baselines::XMemPolicy policy;
    report = rt.run(*app, policy);
  } else if (policy_name == "reactive") {
    baselines::ReactiveLruPolicy policy;
    report = rt.run(*app, policy);
  } else {
    core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants());
    report = rt.run(*app, policy);
  }

  // The run must have actually happened ...
  EXPECT_EQ(report.iteration_seconds.size(), app->iterations());
  EXPECT_GT(report.compute_seconds, 0.0);
  for (const double s : report.iteration_seconds) EXPECT_GT(s, 0.0);
  // ... and the accounting must be internally consistent.
  EXPECT_DOUBLE_EQ(report.total_seconds(),
                   report.compute_seconds + report.overhead_seconds);
  EXPECT_GE(report.overlap_fraction(), 0.0);
  EXPECT_LE(report.overlap_fraction(), 1.0);
  if (!scenario.cfg.any()) {
    EXPECT_EQ(report.faults_injected, 0u);
    EXPECT_EQ(report.plans_degraded, 0u);
  }
  // Every degradation event is backed by at least one injected or genuine
  // failure the counters can explain.
  if (report.plans_degraded > 0) {
    EXPECT_GT(report.faults_injected + report.failed_no_space, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesTimesFaults, FaultMatrix,
    ::testing::Combine(::testing::Values(std::string("heat"),
                                         std::string("cg")),
                       ::testing::Values(std::string("tahoe"),
                                         std::string("xmem"),
                                         std::string("reactive"),
                                         std::string("dram-only"),
                                         std::string("nvm-only")),
                       ::testing::ValuesIn(scenario_names())),
    [](const auto& pinfo) {
      std::string name = std::get<0>(pinfo.param) + "_" +
                         std::get<1>(pinfo.param) + "_" +
                         std::get<2>(pinfo.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

/// The workload's objects, set up on a scratch registry the size of
/// `cfg`'s machine. Object ids are deterministic (creation order), so the
/// scratch registry predicts the ids the runtime will assign.
std::unique_ptr<hms::ObjectRegistry> scratch_registry(
    core::Application& app, const core::RuntimeConfig& cfg) {
  auto reg = std::make_unique<hms::ObjectRegistry>(
      std::vector<std::uint64_t>{cfg.machine.tier(memsim::kDram).capacity,
                                 cfg.machine.devices[memsim::kNvm].capacity},
      hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  chunking.dram_capacity = cfg.chunking ? cfg.machine.tier(memsim::kDram).capacity : 0;
  app.setup(*reg, chunking);
  return reg;
}

/// Build a promote/demote ping-pong schedule covering every chunk of the
/// app's objects, so real runs exercise actual memcpy migrations under
/// injected faults.
std::vector<task::ScheduledCopy> pingpong_schedule(
    const std::string& workload, const core::RuntimeConfig& cfg) {
  auto app = make_app(workload);
  const auto registry = scratch_registry(*app, cfg);
  const hms::ObjectRegistry& reg = *registry;

  task::GraphBuilder gb;
  app->build_iteration(gb, 0);
  const task::TaskGraph graph = gb.build();
  const task::GroupId last = static_cast<task::GroupId>(
      graph.num_groups() > 0 ? graph.num_groups() - 1 : 0);

  std::vector<task::ScheduledCopy> schedule;
  for (const hms::ObjectId id : reg.live_objects()) {
    const hms::DataObject& obj = reg.get(id);
    for (std::size_t c = 0; c < obj.num_chunks(); ++c) {
      schedule.push_back(task::ScheduledCopy{id, c, obj.chunk(c).bytes,
                                             memsim::kDram, 0, 0});
      schedule.push_back(task::ScheduledCopy{id, c, obj.chunk(c).bytes,
                                             memsim::kNvm, last, last});
    }
  }
  return schedule;
}

class FaultMatrixReal
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  void TearDown() override { fault::global().disarm(); }
};

TEST_P(FaultMatrixReal, RealKernelsStayNumericallyCorrect) {
  const auto& [workload, scenario_name] = GetParam();
  const Scenario& scenario = scenario_by_name(scenario_name);

  core::RuntimeConfig cfg = base_config(hms::Backing::Real);
  // Bound phase-boundary waits so stalled copies degrade instead of
  // serializing the run; generous enough to stay off the cancel path in
  // clean scenarios.
  cfg.migration_wait_deadline_seconds = 0.05;
  const std::vector<task::ScheduledCopy> schedule =
      pingpong_schedule(workload, cfg);
  ASSERT_FALSE(schedule.empty());

  arm(scenario);
  auto app = make_app(workload);
  core::Runtime rt(cfg);
  const core::RunReport report = rt.run_real_report(*app, schedule, 3);

  // Degradation must never corrupt data: the residual checks in verify()
  // are the ground truth.
  EXPECT_TRUE(report.verified) << workload << " under " << scenario_name;
  if (!scenario.cfg.any()) {
    EXPECT_EQ(report.faults_injected, 0u);
    EXPECT_EQ(report.migrations_retried, 0u);
    EXPECT_EQ(report.migrations_aborted, 0u);
    EXPECT_GT(report.migrations, 0u);  // the ping-pong plan really moves
  }
  // Engine bookkeeping: every abandoned request implies retries, and
  // every abort-site firing is visible to the injector's counters.
  if (report.migrations_aborted > 0) {
    EXPECT_GE(report.migrations_retried, report.migrations_aborted);
  }
  EXPECT_EQ(fault::global().total_injected(), report.faults_injected);
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsTimesFaults, FaultMatrixReal,
    ::testing::Combine(::testing::Values(std::string("heat"),
                                         std::string("cg")),
                       ::testing::ValuesIn(scenario_names())),
    [](const auto& pinfo) {
      return std::get<0>(pinfo.param) + "_" + std::get<1>(pinfo.param);
    });

/// Turns the global tracer and latency histograms on for one scope, with
/// the tracer's earlier events discarded, and restores both after it.
class TracingOn {
 public:
  TracingOn() {
    trace::global().drain();
    trace::global().set_enabled(true);
    trace::set_histograms_enabled(true);
  }
  ~TracingOn() {
    trace::global().set_enabled(tracer_);
    trace::set_histograms_enabled(histograms_);
    trace::global().drain();
  }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;

 private:
  bool tracer_ = trace::global().enabled();
  bool histograms_ = trace::histograms_enabled();
};

std::uint64_t histogram_count(const char* name) {
  return trace::global_counters().histogram(name).snapshot().count();
}

// Worker threads and the migration helper emit spans and record latency
// histograms at once: one task span and one task sample per executed task,
// one migrate span and one copy sample per migration.
TEST(TracedRealRun, EveryTaskAndMigrationIsTracedAndTimed) {
  fault::global().disarm();
  const core::RuntimeConfig cfg = base_config(hms::Backing::Real);
  const std::vector<task::ScheduledCopy> schedule =
      pingpong_schedule("heat", cfg);
  ASSERT_FALSE(schedule.empty());
  auto app = make_app("heat");
  core::Runtime rt(cfg);

  const TracingOn tracing;
  // The registry is process-global, so the test reads deltas.
  const std::uint64_t tasks_before = histogram_count("executor.task_seconds");
  const std::uint64_t copies_before = histogram_count("migrate.copy_seconds");
  const std::uint64_t waits_before =
      histogram_count("migrate.queue_wait_seconds");
  const core::RunReport report = rt.run_real_report(*app, schedule, 3);
  const std::vector<trace::TraceEvent> events = trace::global().drain();

  EXPECT_TRUE(report.verified);
  EXPECT_GT(report.migrations, 0u);
  EXPECT_GT(report.tasks_executed, 0u);
  EXPECT_EQ(report.trace_dropped_events, 0u);
  std::uint64_t migrate_spans = 0;
  std::uint64_t task_spans = 0;
  for (const trace::TraceEvent& e : events) {
    if (e.kind != trace::EventKind::Complete) continue;
    if (e.track == trace::kMigrationTrack &&
        std::string_view(e.name) == "migrate") {
      ++migrate_spans;
    }
    if (e.track < trace::kMigrationTrack && e.num_args == 2 &&
        std::string_view(e.arg_key[0]) == "task") {
      ++task_spans;
    }
  }
  EXPECT_EQ(migrate_spans, report.migrations);
  EXPECT_GE(task_spans, report.tasks_executed);
  EXPECT_EQ(histogram_count("executor.task_seconds") - tasks_before,
            report.tasks_executed);
  EXPECT_EQ(histogram_count("migrate.copy_seconds") - copies_before,
            report.migrations);
  EXPECT_GT(histogram_count("migrate.queue_wait_seconds"), waits_before);
}

class Degradation : public ::testing::Test {
 protected:
  void TearDown() override { fault::global().disarm(); }
};

// Copies that outlast the phase-boundary deadline are cancelled, and the
// groups read their data from the source tier instead.
TEST_F(Degradation, StalledCopiesPastTheDeadlineAreCancelled) {
  core::RuntimeConfig cfg = base_config(hms::Backing::Real);
  cfg.migration_wait_deadline_seconds = 1e-3;
  const std::vector<task::ScheduledCopy> schedule =
      pingpong_schedule("heat", cfg);
  ASSERT_FALSE(schedule.empty());
  fault::FaultConfig stall;
  stall.copy_stall = 1.0;
  stall.copy_stall_seconds = 5e-3;
  fault::global().configure(stall);
  auto app = make_app("heat");
  core::Runtime rt(cfg);
  const core::RunReport report = rt.run_real_report(*app, schedule, 3);

  EXPECT_GT(report.migrations_cancelled, 0u);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.faults_injected, fault::global().total_injected());
}

// With every DRAM reservation vetoed, plan validation pins one offender
// per round; the eighth round gives up and strips the offender's fills
// instead, so no pinned object and not that offender is ever promoted.
TEST_F(Degradation, PlanValidationGivesUpAfterEightRounds) {
  core::RuntimeConfig cfg = base_config(hms::Backing::Virtual);
  cfg.initial_placement = false;
  cfg.attribution = true;
  fault::FaultConfig veto;
  veto.dram_reservation = 1.0;
  fault::global().configure(veto);
  auto app = make_app("nekproxy");
  core::Runtime rt(cfg);
  core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants());
  ::testing::internal::CaptureStderr();
  const core::RunReport report = rt.run(*app, policy);
  const std::string log = ::testing::internal::GetCapturedStderr();

  EXPECT_EQ(report.iteration_seconds.size(), app->iterations());
  ASSERT_EQ(report.plans.size(), 8u);
  for (std::size_t r = 0; r < report.plans.size(); ++r) {
    EXPECT_EQ(report.plans[r].iteration, report.plans[0].iteration);
    EXPECT_EQ(report.plans[r].replan_round, static_cast<int>(r));
  }
  EXPECT_EQ(report.plans_degraded, 7u);
  const std::string gave_up =
      "plan validation gave up after 8 rounds; dropping DRAM fills of "
      "object ";
  const std::size_t at = log.find(gave_up);
  ASSERT_NE(at, std::string::npos) << log;
  const auto id = static_cast<hms::ObjectId>(
      std::stoul(log.substr(at + gave_up.size())));
  auto scratch_app = make_app("nekproxy");
  std::vector<std::string> never = report.plans.back().pinned_nvm;
  ASSERT_EQ(never.size(), 7u);
  never.emplace_back(scratch_registry(*scratch_app, cfg)->get(id).name());
  for (const core::ObjectMigrationRow& row : report.objects) {
    if (std::find(never.begin(), never.end(), row.object) != never.end()) {
      EXPECT_EQ(row.promotions, 0u) << row.object;
    }
  }
}

}  // namespace
}  // namespace tahoe
