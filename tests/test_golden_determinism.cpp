// Golden determinism (satellite of the fault-injection PR): identical
// seeds + flags must produce byte-identical report JSON across two runs —
// for a simulated-executor run and for a real-executor run — including
// under armed fault injection. This is what makes chaos runs replayable.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/fault.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "trace/counters.hpp"
#include "workloads/common.hpp"
#include "workloads/heat.hpp"

namespace tahoe {
namespace {

core::RuntimeConfig golden_config(hms::Backing backing) {
  core::RuntimeConfig c;
  c.machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);
  c.backing = backing;
  // The one wall-clock-measured report field; pin it for reproducibility.
  c.fixed_decision_seconds = 0.0;
  return c;
}

fault::FaultConfig golden_faults() {
  fault::FaultConfig cfg;
  cfg.seed = 0x601d;  // fixed scenario seed
  cfg.migration_abort = 0.25;
  cfg.dram_reservation = 0.30;
  cfg.sampler_noise = 0.20;
  return cfg;
}

/// One fully reset simulated run serialized to JSON. Global state (fault
/// streams, counters) is re-seeded/zeroed so the run only depends on the
/// configured seeds. Uses the split counter/gauge/histogram snapshots —
/// the same serialization path the bench harness uses for --report-json.
std::string sim_run_json() {
  fault::global().configure(golden_faults());
  trace::global_counters().reset();
  auto app = workloads::make_workload("cg", workloads::Scale::Test);
  core::RuntimeConfig config = golden_config(hms::Backing::Virtual);
  config.attribution = true;
  core::Runtime rt(config);
  core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants());
  const core::RunReport report = rt.run(*app, policy);
  std::ostringstream os;
  auto& reg = trace::global_counters();
  report.write_json(os, reg.snapshot_counters(), reg.snapshot_gauges(),
                    reg.snapshot_histograms());
  return os.str();
}

/// The same run's decision provenance (--explain-out payload).
std::string sim_explain_json() {
  fault::global().configure(golden_faults());
  trace::global_counters().reset();
  auto app = workloads::make_workload("cg", workloads::Scale::Test);
  core::RuntimeConfig config = golden_config(hms::Backing::Virtual);
  config.attribution = true;
  core::Runtime rt(config);
  core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants());
  const core::RunReport report = rt.run(*app, policy);
  std::ostringstream os;
  report.write_explain_json(os);
  return os.str();
}

/// One fully reset real-executor run serialized to JSON. The report's
/// real-path fields are all event counts (no wall-clock), so the bytes
/// must match as long as the injected fault schedule does.
std::string real_run_json() {
  fault::global().configure(golden_faults());
  trace::global_counters().reset();
  workloads::HeatApp app(workloads::HeatApp::config_for(
      workloads::Scale::Test));
  core::Runtime rt(golden_config(hms::Backing::Real));

  // A small deterministic promote/demote schedule over heat's objects.
  hms::ObjectRegistry scratch({64 * kMiB, 4 * kGiB}, hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  chunking.dram_capacity = 64 * kMiB;
  workloads::HeatApp probe(workloads::HeatApp::config_for(
      workloads::Scale::Test));
  probe.setup(scratch, chunking);
  std::vector<task::ScheduledCopy> schedule;
  for (const hms::ObjectId id : scratch.live_objects()) {
    const hms::DataObject& obj = scratch.get(id);
    for (std::size_t c = 0; c < obj.num_chunks(); ++c) {
      schedule.push_back(task::ScheduledCopy{id, c, obj.chunk(c).bytes,
                                             memsim::kDram, 0, 0});
      schedule.push_back(task::ScheduledCopy{id, c, obj.chunk(c).bytes,
                                             memsim::kNvm, 2, 2});
    }
  }
  const core::RunReport report = rt.run_real_report(app, schedule, 2);
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

class GoldenDeterminism : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::global().disarm();
    trace::global_counters().reset();
  }
};

TEST_F(GoldenDeterminism, SimulatedRunIsByteIdentical) {
  const std::string first = sim_run_json();
  const std::string second = sim_run_json();
  EXPECT_EQ(first, second);
  // Sanity: the run is non-trivial and the faults really fired.
  EXPECT_NE(first.find("\"faults_injected\""), std::string::npos);
  EXPECT_EQ(first.find("\"faults_injected\":0,"), std::string::npos);
}

TEST_F(GoldenDeterminism, ExplainOutputIsByteIdentical) {
  // Decision provenance must replay exactly: it deliberately excludes the
  // one wall-clock field (decision_seconds), so two seeded runs serialize
  // candidate-for-candidate identical explain documents.
  const std::string first = sim_explain_json();
  const std::string second = sim_explain_json();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"schema_version\":5"), std::string::npos);
  EXPECT_NE(first.find("\"plans\":["), std::string::npos);
  EXPECT_NE(first.find("\"candidates\":["), std::string::npos);
  EXPECT_NE(first.find("\"reason\":"), std::string::npos);
}

TEST_F(GoldenDeterminism, AttributionTablesAreByteIdentical) {
  // The report JSON now carries attribution + per-object migration rows;
  // those ride the same determinism guarantee as the scalar fields.
  const std::string first = sim_run_json();
  EXPECT_NE(first.find("\"schema_version\":5"), std::string::npos);
  EXPECT_NE(first.find("\"attribution\":["), std::string::npos);
  EXPECT_NE(first.find("\"objects\":["), std::string::npos);
}

TEST_F(GoldenDeterminism, RealRunIsByteIdentical) {
  const std::string first = real_run_json();
  const std::string second = real_run_json();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"verified\":true"), std::string::npos);
}

TEST_F(GoldenDeterminism, DifferentFaultSeedsDiverge) {
  // The complement property: the seed is what controls the schedule, so
  // changing it must be able to change the outcome-bearing counters.
  fault::FaultConfig a = golden_faults();
  fault::FaultConfig b = golden_faults();
  b.seed ^= 0x9e3779b97f4a7c15ULL;
  fault::FaultInjector ia;
  fault::FaultInjector ib;
  ia.configure(a);
  ib.configure(b);
  std::vector<bool> da;
  std::vector<bool> db;
  for (int i = 0; i < 256; ++i) {
    da.push_back(ia.should_fail(fault::Site::MigrationAbort));
    db.push_back(ib.should_fail(fault::Site::MigrationAbort));
  }
  EXPECT_NE(da, db);
}

}  // namespace
}  // namespace tahoe
