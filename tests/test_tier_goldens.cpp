// Report and explain goldens: byte-for-byte pins of seeded simulated runs.
//
// All of them pin the one MCKP planner (`TahoePolicy::decide`) and the
// one tier-indexed report layout (schema_version 5). Two-tier runs on
// `platform_a` and `optane_platform` pin it with one constrained tier;
// they were captured when two-tier machines still had a 0/1 planner of
// their own, and folding that planner into the MCKP path left every value
// in them unchanged. Four-tier runs on a small `cxl_platform` pin three
// constrained tiers; its tiers are sized so the per-group fixed point of
// both apps takes three rounds to settle. The tests compare serialized
// output against tests/golden/*.json (see golden.hpp for
// TAHOE_UPDATE_GOLDENS).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/fault.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "golden.hpp"
#include "trace/counters.hpp"
#include "workloads/common.hpp"

namespace tahoe {
namespace {

core::RuntimeConfig platform_a_config() {
  core::RuntimeConfig c;
  c.machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);
  c.backing = hms::Backing::Virtual;
  c.fixed_decision_seconds = 0.0;
  c.attribution = true;
  return c;
}

core::RuntimeConfig optane_config() {
  core::RuntimeConfig c;
  c.machine = memsim::machines::optane_platform(64 * kMiB);
  c.backing = hms::Backing::Virtual;
  c.fixed_decision_seconds = 0.0;
  c.attribution = true;
  return c;
}

/// HBM + DRAM + CXL-DRAM well below the Test-scale working sets, so the
/// plan spreads units over all three constrained tiers.
core::RuntimeConfig cxl_config() {
  core::RuntimeConfig c;
  c.machine = memsim::machines::cxl_platform(64 * kKiB, 128 * kKiB,
                                             256 * kKiB, 4 * kGiB);
  c.backing = hms::Backing::Virtual;
  c.fixed_decision_seconds = 0.0;
  c.attribution = true;
  return c;
}

struct RunJson {
  std::string report;
  std::string explain;
};

/// One fully reset seeded run: the report body alone (no counter/gauge
/// snapshots — those may legitimately gain new entries over time) plus the
/// explain document.
RunJson run_json(const core::RuntimeConfig& config,
                 const std::string& workload) {
  fault::global().disarm();
  trace::global_counters().reset();
  auto app = workloads::make_workload(workload, workloads::Scale::Test);
  core::Runtime rt(config);
  core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants());
  const core::RunReport report = rt.run(*app, policy);
  RunJson out;
  {
    std::ostringstream os;
    report.write_json(os);
    out.report = os.str();
  }
  {
    std::ostringstream os;
    report.write_explain_json(os);
    out.explain = os.str();
  }
  return out;
}

TEST(TierGoldens, PlatformACgReportIsByteIdentical) {
  const RunJson r = run_json(platform_a_config(), "cg");
  check_golden("platform_a_cg.report.json", r.report);
}

TEST(TierGoldens, PlatformACgExplainIsByteIdentical) {
  const RunJson r = run_json(platform_a_config(), "cg");
  check_golden("platform_a_cg.explain.json", r.explain);
}

TEST(TierGoldens, PlatformAHeatReportIsByteIdentical) {
  const RunJson r = run_json(platform_a_config(), "heat");
  check_golden("platform_a_heat.report.json", r.report);
}

TEST(TierGoldens, OptaneCgReportIsByteIdentical) {
  const RunJson r = run_json(optane_config(), "cg");
  check_golden("optane_cg.report.json", r.report);
}

TEST(TierGoldens, OptaneSpReportIsByteIdentical) {
  const RunJson r = run_json(optane_config(), "sp");
  check_golden("optane_sp.report.json", r.report);
}

TEST(TierGoldens, CxlFtReportIsByteIdentical) {
  const RunJson r = run_json(cxl_config(), "ft");
  check_golden("cxl_ft.report.json", r.report);
}

TEST(TierGoldens, CxlFtExplainIsByteIdentical) {
  const RunJson r = run_json(cxl_config(), "ft");
  check_golden("cxl_ft.explain.json", r.explain);
}

TEST(TierGoldens, CxlNekproxyReportIsByteIdentical) {
  const RunJson r = run_json(cxl_config(), "nekproxy");
  check_golden("cxl_nekproxy.report.json", r.report);
}

TEST(TierGoldens, CxlNekproxyExplainIsByteIdentical) {
  const RunJson r = run_json(cxl_config(), "nekproxy");
  check_golden("cxl_nekproxy.explain.json", r.explain);
}

}  // namespace
}  // namespace tahoe
