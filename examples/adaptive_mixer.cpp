// Adaptivity example: a workload whose hot data object switches mid-run.
// With adaptivity enabled the runtime notices the per-phase time deviating
// by more than 10%, re-profiles, re-decides, and recovers; with a frozen
// plan the wrong object stays in DRAM forever.
#include <fstream>
#include <iomanip>
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
#include "workloads/synthetic.hpp"

namespace {

tahoe::core::RunReport run(bool adaptive, bool attribution) {
  using namespace tahoe;
  core::RuntimeConfig config;
  config.machine = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);
  config.backing = hms::Backing::Virtual;
  config.adaptive = adaptive;
  config.attribution = attribution;
  core::Runtime runtime(config);
  workloads::DriftApp app({48 * kMiB, 8, 18, 9});  // drift at iteration 9
  core::TahoePolicy policy(core::calibrate(runtime.machine()).to_constants());
  return runtime.run(app, policy);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags;
  flags.define_string("trace-out", "",
                      "write a Chrome trace_event JSON timeline here");
  flags.define_string("report-json", "",
                      "write the adaptive run's RunReport as JSON here");
  flags.define_string("explain-out", "",
                      "write the adaptive run's plan provenance as JSON here");
  flags.parse(argc, argv);
  const std::string trace_out = flags.get_string("trace-out");
  const std::string report_json = flags.get_string("report-json");
  const std::string explain_out = flags.get_string("explain-out");
  if (!trace_out.empty()) trace::global().set_enabled(true);
  if (!trace_out.empty() || !report_json.empty() || !explain_out.empty()) {
    trace::set_histograms_enabled(true);
  }
  const bool attribution = !report_json.empty() || !explain_out.empty();

  const core::RunReport adaptive = run(true, attribution);
  const core::RunReport frozen = run(false, attribution);

  std::cout << "iter   adaptive(s)   frozen(s)\n";
  std::cout << std::fixed << std::setprecision(5);
  for (std::size_t i = 0; i < adaptive.iteration_seconds.size(); ++i) {
    std::cout << std::setw(4) << i << "   " << std::setw(10)
              << adaptive.iteration_seconds[i] << "   " << std::setw(9)
              << frozen.iteration_seconds[i]
              << (i == 9 ? "   <- workload drifts here" : "") << "\n";
  }
  std::cout << "\nadaptive re-profiled " << adaptive.reprofiles
            << " time(s); final iteration "
            << frozen.iteration_seconds.back() /
                   adaptive.iteration_seconds.back()
            << "x faster than the frozen plan\n";

  if (!trace_out.empty()) {
    trace::export_chrome_trace(trace_out);
  }
  if (!report_json.empty()) {
    std::ofstream os(report_json);
    auto& reg = trace::global_counters();
    adaptive.write_json(os, reg.snapshot_counters(), reg.snapshot_gauges(),
                        reg.snapshot_histograms());
    os << '\n';
  }
  if (!explain_out.empty()) {
    std::ofstream os(explain_out);
    adaptive.write_explain_json(os);
    os << '\n';
  }
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
