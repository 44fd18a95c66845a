// Heat diffusion example: a real 2-D Jacobi solver running its kernels on
// real memory through the real executor, with helper-thread migrations
// driven by a Tahoe decision — then the same application on the simulated
// timing path for the DRAM/NVM comparison.
#include <fstream>
#include <iostream>

#include "common/flags.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "trace/chrome_export.hpp"
#include "trace/counters.hpp"
#include "trace/histogram.hpp"
#include "trace/trace.hpp"
#include "workloads/heat.hpp"

int main(int argc, char** argv) try {
  using namespace tahoe;

  Flags flags;
  flags.define_string("trace-out", "",
                      "write a Chrome trace_event JSON timeline here");
  flags.define_string("report-json", "",
                      "write the Tahoe run's RunReport as JSON here");
  flags.define_string("explain-out", "",
                      "write the Tahoe run's plan provenance as JSON here");
  flags.parse(argc, argv);
  const std::string trace_out = flags.get_string("trace-out");
  const std::string report_json = flags.get_string("report-json");
  const std::string explain_out = flags.get_string("explain-out");
  if (!trace_out.empty()) trace::global().set_enabled(true);
  if (!trace_out.empty() || !report_json.empty() || !explain_out.empty()) {
    trace::set_histograms_enabled(true);
  }

  core::RuntimeConfig config;
  config.machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);

  // ---- real execution: kernels, registry, helper-thread migration ----
  {
    config.backing = hms::Backing::Real;
    core::Runtime runtime(config);
    workloads::HeatApp app(
        workloads::HeatApp::config_for(workloads::Scale::Test));
    const bool ok =
        runtime.run_real_report(app, /*schedule=*/{}, 4).verified;
    std::cout << "real 2-D Jacobi run: "
              << (ok ? "converging (verify passed)" : "FAILED") << "\n";
  }

  // ---- simulated timing: DRAM-only vs NVM-only vs Tahoe ----
  config.backing = hms::Backing::Virtual;
  config.attribution = !report_json.empty() || !explain_out.empty();
  core::Runtime runtime(config);
  workloads::HeatApp dram_app(
      workloads::HeatApp::config_for(workloads::Scale::Test));
  workloads::HeatApp nvm_app(
      workloads::HeatApp::config_for(workloads::Scale::Test));
  workloads::HeatApp tahoe_app(
      workloads::HeatApp::config_for(workloads::Scale::Test));

  const core::RunReport dram = runtime.run_static(dram_app, memsim::kDram);
  const core::RunReport nvm = runtime.run_static(nvm_app, memsim::kNvm);
  core::TahoePolicy policy(core::calibrate(runtime.machine()).to_constants());
  const core::RunReport tahoe = runtime.run(tahoe_app, policy);

  std::cout << "simulated steady-state iteration time\n"
            << "  DRAM-only: " << dram.steady_iteration_seconds() << " s\n"
            << "  NVM-only : " << nvm.steady_iteration_seconds() << " s ("
            << nvm.steady_iteration_seconds() /
                   dram.steady_iteration_seconds()
            << "x)\n"
            << "  Tahoe    : " << tahoe.steady_iteration_seconds() << " s ("
            << tahoe.steady_iteration_seconds() /
                   dram.steady_iteration_seconds()
            << "x, strategy " << tahoe.strategy << ", "
            << tahoe.migrations << " migrations, "
            << to_mib(tahoe.bytes_moved) << " MiB moved)\n";

  if (!trace_out.empty()) {
    trace::export_chrome_trace(trace_out);
  }
  if (!report_json.empty()) {
    std::ofstream os(report_json);
    auto& reg = trace::global_counters();
    tahoe.write_json(os, reg.snapshot_counters(), reg.snapshot_gauges(),
                     reg.snapshot_histograms());
    os << '\n';
  }
  if (!explain_out.empty()) {
    std::ofstream os(explain_out);
    tahoe.write_explain_json(os);
    os << '\n';
  }
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
