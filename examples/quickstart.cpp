// Quickstart: the smallest complete Tahoe-TP program.
//
// 1. Describe the heterogeneous machine (DRAM + NVM by default;
//    --machine=cxl selects a four-tier HBM + DRAM + CXL-DRAM + NVM box).
// 2. Write an iterative task-parallel application against the public API:
//    allocate data objects, declare per-task access sets, build the
//    per-iteration task graph.
// 3. Run it under the Tahoe runtime and compare with the DRAM-only and
//    NVM-only extremes.
#include <fstream>
#include <iostream>

#include "common/fault.hpp"
#include "common/flags.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "trace/chrome_export.hpp"
#include "trace/counters.hpp"
#include "trace/histogram.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

namespace {

using namespace tahoe;

// An application with two phases per iteration: a "build" phase streaming
// over a table, and an "apply" phase doing dependent lookups into an
// index. The index is latency-sensitive, the table bandwidth-sensitive —
// Tahoe has to figure that out from sampled counters alone.
class QuickstartApp : public core::Application {
 public:
  std::string name() const override { return "quickstart"; }
  std::size_t iterations() const override { return 10; }

  void setup(hms::ObjectRegistry& registry,
             const hms::ChunkingPolicy& chunking) override {
    (void)chunking;
    // Everything starts on the capacity tier; the runtime profiles the
    // first iterations and migrates what matters into the faster tiers.
    table_ = registry.create("table", 48 * kMiB, registry.capacity_tier());
    index_ = registry.create("index", 24 * kMiB, registry.capacity_tier());
  }

  void build_iteration(task::GraphBuilder& builder,
                       std::size_t iteration) override {
    (void)iteration;
    if (builder.keep_previous()) return;
    builder.begin_group("build");
    for (int i = 0; i < 8; ++i) {
      task::Task t;
      t.label = "build";
      t.compute_seconds = 1e-4;
      task::DataAccess a;
      a.object = table_;
      a.mode = task::AccessMode::ReadWrite;
      a.traffic.loads = 750'000;
      a.traffic.stores = 750'000;
      a.traffic.footprint = 6 * kMiB;
      a.traffic.locality = 0.1;
      t.accesses = {a};
      builder.add_task(std::move(t));
    }
    builder.begin_group("apply");
    for (int i = 0; i < 8; ++i) {
      task::Task t;
      t.label = "apply";
      t.compute_seconds = 1e-4;
      task::DataAccess a;
      a.object = index_;
      a.mode = task::AccessMode::Read;
      a.traffic.loads = 125'000;
      a.traffic.footprint = 24 * kMiB;
      a.traffic.dep_frac = 0.9;  // pointer-chasing-like lookups
      t.accesses = {a};
      builder.add_task(std::move(t));
    }
  }

 private:
  hms::ObjectId table_ = hms::kInvalidObject;
  hms::ObjectId index_ = hms::kInvalidObject;
};

}  // namespace

int main(int argc, char** argv) try {
  tahoe::Flags flags;
  flags.define_string("trace-out", "",
                      "write a Chrome trace_event JSON timeline here "
                      "(open in chrome://tracing or Perfetto)");
  flags.define_string("report-json", "",
                      "write the Tahoe run's RunReport as JSON here");
  flags.define_string("explain-out", "",
                      "write the Tahoe run's plan provenance (candidates, "
                      "weights, accept/reject reasons) as JSON here");
  flags.define_string("machine", "platform-a",
                      "machine model: platform-a (DRAM+NVM) or cxl "
                      "(HBM+DRAM+CXL-DRAM+NVM, exercises the N-tier path)");
  flags.define_bool("deterministic", false,
                    "zero out the wall-clock-measured planning cost so "
                    "same-seed runs write byte-identical reports");
  tahoe::fault::register_flags(flags);
  tahoe::trace::register_telemetry_flags(flags);
  flags.parse(argc, argv);
  tahoe::fault::configure_from_flags(flags);
  const std::string trace_out = flags.get_string("trace-out");
  const std::string report_json = flags.get_string("report-json");
  const std::string explain_out = flags.get_string("explain-out");
  if (!trace_out.empty() || !report_json.empty() || !explain_out.empty()) {
    trace::set_histograms_enabled(true);
  }
  trace::configure_telemetry_from_flags(flags);

  core::RuntimeConfig config;
  const std::string machine_name = flags.get_string("machine");
  flags.require_flag(machine_name == "platform-a" || machine_name == "cxl",
                     "unknown --machine '" + machine_name +
                         "' (expected platform-a or cxl)");
  if (machine_name == "cxl") {
    // Four tiers, sized so the 72 MiB working set cannot fit any single
    // fast tier: the planner has to spread it across the hierarchy.
    config.machine = memsim::machines::cxl_platform(16 * kMiB, 32 * kMiB,
                                                    56 * kMiB, 4 * kGiB);
  } else {
    // A machine whose NVM has 1/2 the DRAM bandwidth and 4x its latency
    // would need Quartz twice; the simulator just takes both numbers.
    memsim::DeviceModel nvm = memsim::devices::nvm_bw_fraction(
        memsim::devices::dram(32 * kMiB), 0.5, 4 * kGiB);
    nvm.read_lat_s *= 4.0;
    nvm.write_lat_s *= 4.0;
    config.machine = memsim::machines::platform_a(nvm, 32 * kMiB);
  }
  config.backing = hms::Backing::Virtual;  // timing-only run
  config.attribution = !report_json.empty() || !explain_out.empty();
  if (flags.get_bool("deterministic")) config.fixed_decision_seconds = 0.0;

  core::Runtime runtime(config);

  const memsim::TierId fast = config.machine.fastest_tier();
  const memsim::TierId cap = config.machine.capacity_tier();
  const bool two_tier = config.machine.num_tiers() == 2;
  const std::string fast_label =
      two_tier ? "DRAM-only" : config.machine.tier(fast).name + "-only";
  const std::string cap_label =
      two_tier ? "NVM-only" : config.machine.tier(cap).name + "-only";

  QuickstartApp dram_app;
  QuickstartApp nvm_app;
  QuickstartApp tahoe_app;
  const core::RunReport dram = runtime.run_static(dram_app, fast);
  const core::RunReport nvm_only = runtime.run_static(nvm_app, cap);

  // Calibrate once per machine, then run under the Tahoe policy. The
  // trace covers only this run: the static baselines share the same
  // virtual-time origin, so mixing all three into one timeline would
  // overlay unrelated spans on the same lanes.
  if (!trace_out.empty()) trace::global().set_enabled(true);
  core::TahoePolicy policy(
      core::calibrate(runtime.machine()).to_constants());
  const core::RunReport tahoe = runtime.run(tahoe_app, policy);

  std::cout << "quickstart (steady-state seconds per iteration)\n"
            << "  " << fast_label << " : " << dram.steady_iteration_seconds()
            << "\n"
            << "  " << cap_label << "  : "
            << nvm_only.steady_iteration_seconds() << "\n"
            << "  Tahoe     : " << tahoe.steady_iteration_seconds()
            << "  (strategy: " << tahoe.strategy
            << ", migrations: " << tahoe.migrations
            << ", overlap: " << tahoe.overlap_fraction() * 100.0 << "%)\n";

  const double gap = nvm_only.steady_iteration_seconds() -
                     dram.steady_iteration_seconds();
  const double closed =
      nvm_only.steady_iteration_seconds() - tahoe.steady_iteration_seconds();
  std::cout << "  -> Tahoe closed " << closed / gap * 100.0 << "% of the "
            << (two_tier ? "DRAM/NVM" : "fast-tier/capacity-tier")
            << " gap\n";

  if (!trace_out.empty() && trace::export_chrome_trace(trace_out)) {
    std::cout << "  trace written to " << trace_out
              << " (open in chrome://tracing or https://ui.perfetto.dev)\n";
  }
  trace::telemetry().shutdown();  // flush the JSONL stream before exit
  if (!report_json.empty()) {
    std::ofstream os(report_json);
    auto& reg = trace::global_counters();
    tahoe.write_json(os, reg.snapshot_counters(), reg.snapshot_gauges(),
                     reg.snapshot_histograms());
    os << '\n';
    std::cout << "  report written to " << report_json << "\n";
  }
  if (!explain_out.empty()) {
    std::ofstream os(explain_out);
    tahoe.write_explain_json(os);
    os << '\n';
    std::cout << "  plan provenance written to " << explain_out << "\n";
  }
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
