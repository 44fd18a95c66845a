// Sparse CG example: conjugate gradient on a CSR matrix. Shows the full
// application lifecycle (allocation through the registry, per-task access
// declarations, verification of the numerical result) and how the planner
// treats the gather-heavy SpMV phase differently from the streaming AXPY
// phases.
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
#include "workloads/cg.hpp"

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
      memsim::devices::nvm_lat_multiple(memsim::devices::dram(48 * kMiB), 4.0,
                                        4 * kGiB),
      48 * kMiB);

  // Real solve with verification (residual must drop).
  {
    config.backing = hms::Backing::Real;
    core::Runtime runtime(config);
    workloads::CgApp app(workloads::CgApp::config_for(workloads::Scale::Test));
    const bool converged =
        runtime.run_real_report(app, /*schedule=*/{}, 4).verified;
    std::cout << "real CG solve: "
              << (converged ? "residual reduced (verify passed)" : "FAILED")
              << "\n";
  }

  // Simulated comparison on the latency-limited NVM.
  config.backing = hms::Backing::Virtual;
  config.attribution = !report_json.empty() || !explain_out.empty();
  core::Runtime runtime(config);
  workloads::CgApp dram_app(
      workloads::CgApp::config_for(workloads::Scale::Test));
  workloads::CgApp nvm_app(workloads::CgApp::config_for(workloads::Scale::Test));
  workloads::CgApp tahoe_app(
      workloads::CgApp::config_for(workloads::Scale::Test));

  const core::RunReport dram = runtime.run_static(dram_app, memsim::kDram);
  const core::RunReport nvm = runtime.run_static(nvm_app, memsim::kNvm);
  core::TahoePolicy policy(core::calibrate(runtime.machine()).to_constants());
  const core::RunReport tahoe = runtime.run(tahoe_app, policy);

  std::cout << "CG on 4x-latency NVM (normalized to DRAM-only)\n"
            << "  NVM-only: "
            << nvm.steady_iteration_seconds() / dram.steady_iteration_seconds()
            << "x\n"
            << "  Tahoe   : "
            << tahoe.steady_iteration_seconds() /
                   dram.steady_iteration_seconds()
            << "x  (strategy " << tahoe.strategy << ", runtime overhead "
            << tahoe.runtime_cost_fraction() * 100.0 << "%)\n";

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
