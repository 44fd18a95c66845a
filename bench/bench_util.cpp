#include "bench_util.hpp"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "baselines/reactive.hpp"
#include "baselines/xmem.hpp"
#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "core/calibration.hpp"
#include "trace/chrome_export.hpp"
#include "trace/counters.hpp"
#include "trace/histogram.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

namespace tahoe::bench {

memsim::Machine make_machine(const BenchConfig& config) {
  memsim::Machine m = [&]() {
    if (config.nvm_spec == "optane") {
      memsim::Machine om = memsim::machines::optane_platform(
          config.dram_capacity);
      om.devices.back().capacity = config.nvm_capacity;
      return om;
    }
    // "<kind>:<number>", the number taking the rest of the spec; the
    // device presets check its range.
    const auto colon = config.nvm_spec.find(':');
    const std::string kind = config.nvm_spec.substr(0, colon);
    const std::string number =
        colon == std::string::npos ? "" : config.nvm_spec.substr(colon + 1);
    char* end = nullptr;
    const double value = std::strtod(number.c_str(), &end);
    TAHOE_REQUIRE((kind == "bw" || kind == "lat") && !number.empty() &&
                      *end == '\0' && std::isfinite(value),
                  "nvm spec must be bw:<f>, lat:<m> or optane, not '" +
                      config.nvm_spec + "'");
    const memsim::DeviceModel dram =
        memsim::devices::dram(config.dram_capacity);
    return memsim::machines::platform_a(
        kind == "bw" ? memsim::devices::nvm_bw_fraction(dram, value,
                                                        config.nvm_capacity)
                     : memsim::devices::nvm_lat_multiple(dram, value,
                                                         config.nvm_capacity),
        config.dram_capacity);
  }();
  if (config.workers != 0) m.workers = config.workers;
  return m;
}

memsim::TierId fastest_tier(const BenchConfig& config) {
  return make_machine(config).fastest_tier();
}

memsim::TierId capacity_tier(const BenchConfig& config) {
  return make_machine(config).capacity_tier();
}

core::RuntimeConfig runtime_config(const BenchConfig& config) {
  core::RuntimeConfig c;
  c.machine = make_machine(config);
  c.backing = hms::Backing::Virtual;
  c.attribution = config.attribution;
  if (config.deterministic) c.fixed_decision_seconds = 0.0;
  return c;
}

void append_report_json(const core::RunReport& report,
                        const std::string& path) {
  if (path.empty()) return;
  std::ofstream os(path, std::ios::app);
  if (!os) {
    TAHOE_WARN("cannot open report output file '" << path << "'");
    return;
  }
  // Split snapshots: gauges and histograms land in their own JSON objects
  // so downstream diffing of the monotonic counters stays deterministic.
  auto& reg = trace::global_counters();
  report.write_json(os, reg.snapshot_counters(), reg.snapshot_gauges(),
                    reg.snapshot_histograms());
  os << '\n';
}

void append_explain_json(const core::RunReport& report,
                         const std::string& path) {
  if (path.empty()) return;
  std::ofstream os(path, std::ios::app);
  if (!os) {
    TAHOE_WARN("cannot open explain output file '" << path << "'");
    return;
  }
  report.write_explain_json(os);
  os << '\n';
}

core::RunReport run_static(const std::string& workload,
                           const BenchConfig& config, memsim::DeviceId tier) {
  core::Runtime rt(runtime_config(config));
  auto app = workloads::make_workload(workload, config.scale);
  core::RunReport report = rt.run_static(*app, tier);
  append_report_json(report, config.report_json);
  return report;
}

namespace {

/// Run one workload under `policy` on a runtime built from `rc`, and append
/// its report and explain document to the config's artifact files.
core::RunReport run_policy(const std::string& workload,
                           const BenchConfig& config,
                           const core::RuntimeConfig& rc,
                           core::Policy& policy) {
  core::Runtime rt(rc);
  auto app = workloads::make_workload(workload, config.scale);
  core::RunReport report = rt.run(*app, policy);
  append_report_json(report, config.report_json);
  append_explain_json(report, config.explain_out);
  return report;
}

}  // namespace

core::RunReport run_tahoe(const std::string& workload,
                          const BenchConfig& config,
                          const core::TahoeOptions& options,
                          const Tweaks& tweaks) {
  core::RuntimeConfig rc = runtime_config(config);
  rc.initial_placement = tweaks.initial_placement;
  rc.chunking = tweaks.chunking;
  rc.adaptive = tweaks.adaptive;
  core::TahoePolicy policy(core::calibrate(rc.machine).to_constants(),
                           options);
  return run_policy(workload, config, rc, policy);
}

core::RunReport run_xmem(const std::string& workload,
                         const BenchConfig& config) {
  baselines::XMemPolicy policy;
  return run_policy(workload, config, runtime_config(config), policy);
}

core::RunReport run_reactive(const std::string& workload,
                             const BenchConfig& config) {
  baselines::ReactiveLruPolicy policy;
  return run_policy(workload, config, runtime_config(config), policy);
}

double normalized(const core::RunReport& run, const core::RunReport& dram) {
  const double base = dram.steady_iteration_seconds();
  TAHOE_REQUIRE(base > 0.0, "degenerate DRAM baseline");
  return run.steady_iteration_seconds() / base;
}

void register_artifact_flags(Flags& flags) {
  flags.define_string("trace-out", "",
                      "write a Chrome trace_event JSON timeline here "
                      "(open in chrome://tracing or Perfetto)");
  flags.define_string("report-json", "",
                      "append each run's RunReport as a JSON line here");
  flags.define_string("explain-out", "",
                      "append each policy run's plan provenance (candidates, "
                      "weights, accept/reject reasons) as a JSON line here");
  fault::register_flags(flags);
  trace::register_telemetry_flags(flags);
}

ArtifactFlags apply_artifact_flags(const Flags& flags) {
  // Chaos benchmarking: arm the global injector when any --fault-* rate is
  // set (all seeded, so chaos runs replay exactly).
  fault::configure_from_flags(flags);
  ArtifactFlags out;
  out.report_json = flags.get_string("report-json");
  out.explain_out = flags.get_string("explain-out");
  out.trace_out = flags.get_string("trace-out");
  // Latency histograms ride along whenever any artifact is requested; they
  // are off by default so uninstrumented runs pay only a relaxed load.
  if (!out.report_json.empty() || !out.explain_out.empty() ||
      !out.trace_out.empty()) {
    trace::set_histograms_enabled(true);
  }
  if (!out.trace_out.empty()) {
    // Export at process exit so one invocation (possibly many runs) yields
    // one timeline. The path outlives the call via a static.
    static std::string trace_path;
    const bool first = trace_path.empty();
    trace_path = out.trace_out;
    trace::global().set_enabled(true);
    if (first) {
      std::atexit([] { trace::export_chrome_trace(trace_path); });
    }
  }
  trace::configure_telemetry_from_flags(flags);
  return out;
}

Flags standard_flags() {
  Flags flags;
  flags.define_string("scale", "bench", "problem scale: test | bench");
  flags.define_bool("csv", false, "also emit CSV");
  flags.define_int("dram-mib", 256, "DRAM tier capacity in MiB");
  flags.define_int("workers", 0, "worker override (0 = machine default)");
  flags.define_bool("deterministic", false,
                    "zero out the wall-clock-measured planning cost so "
                    "same-flag runs print byte-identical tables");
  register_artifact_flags(flags);
  return flags;
}

BenchConfig config_from_flags(const Flags& flags, const std::string& nvm_spec) {
  const ArtifactFlags artifacts = apply_artifact_flags(flags);
  BenchConfig config;
  config.nvm_spec = nvm_spec;
  config.dram_capacity = dram_capacity_from_flags(flags);
  config.workers = static_cast<std::uint32_t>(flags.get_uint(
      "workers", std::numeric_limits<std::uint32_t>::max()));
  config.scale = workloads::parse_scale(flags.get_string("scale"));
  config.report_json = artifacts.report_json;
  config.explain_out = artifacts.explain_out;
  config.attribution =
      !config.report_json.empty() || !config.explain_out.empty();
  config.deterministic = flags.get_bool("deterministic");
  return config;
}

std::uint64_t dram_capacity_from_flags(const Flags& flags) {
  const std::uint64_t mib = flags.get_uint(
      "dram-mib", std::numeric_limits<std::uint64_t>::max() / kMiB);
  flags.require_flag(mib > 0, "flag --dram-mib expects a positive capacity");
  return mib * kMiB;
}

void emit(const std::string& title, const Table& table, bool csv) {
  std::cout << "== " << title << " ==\n";
  table.print(std::cout);
  if (csv) {
    std::cout << "-- csv --\n";
    table.print_csv(std::cout);
  }
  std::cout << '\n';
}

}  // namespace tahoe::bench
