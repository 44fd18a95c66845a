// Shared plumbing for the experiment-regeneration binaries (one binary per
// paper table/figure). Every bench prints a normalized table in the same
// form as the paper's figure it regenerates, plus an optional CSV dump.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/planner.hpp"
#include "core/report.hpp"
#include "core/runtime.hpp"
#include "workloads/common.hpp"

namespace tahoe::bench {

struct BenchConfig {
  /// NVM spec: "bw:<fraction>", "lat:<multiple>", or "optane".
  std::string nvm_spec = "bw:0.5";
  std::uint64_t dram_capacity = 256 * kMiB;
  std::uint64_t nvm_capacity = 16 * kGiB;
  std::uint32_t workers = 0;  ///< 0 = machine default
  workloads::Scale scale = workloads::Scale::Bench;
  /// When non-empty, every run_* helper appends its RunReport (plus the
  /// metrics-registry snapshot) as one JSON line to this file.
  std::string report_json;
  /// When non-empty, every policy run appends its decision provenance
  /// (RunReport::write_explain_json) as one JSON line to this file.
  std::string explain_out;
  /// Collect per-(task type, object) attribution into the reports. Enabled
  /// automatically whenever report_json or explain_out is set.
  bool attribution = false;
  /// Fix the measured planning cost at 0 (RuntimeConfig::
  /// fixed_decision_seconds), so the tables that print it (TAB-5's runtime
  /// cost, FIG-11) are byte-identical from run to run.
  bool deterministic = false;
};

/// Build the machine for a config (platform-a unless spec == "optane").
memsim::Machine make_machine(const BenchConfig& config);

/// Tier pins for the static-placement baselines, resolved from the
/// config's machine — the N-tier-safe spelling of the old kDram/kNvm
/// literals (fastest tier = DRAM, capacity tier = NVM on the two-tier
/// platforms).
memsim::TierId fastest_tier(const BenchConfig& config);
memsim::TierId capacity_tier(const BenchConfig& config);

/// Runtime configuration with virtual backing (simulation only).
core::RuntimeConfig runtime_config(const BenchConfig& config);

/// Optional runtime-feature overrides for ablations.
struct Tweaks {
  bool initial_placement = true;
  bool chunking = true;
  bool adaptive = true;
};

/// Run one workload under one setup; all return the full report.
core::RunReport run_static(const std::string& workload,
                           const BenchConfig& config, memsim::DeviceId tier);
core::RunReport run_tahoe(const std::string& workload,
                          const BenchConfig& config,
                          const core::TahoeOptions& options = {},
                          const Tweaks& tweaks = {});
core::RunReport run_xmem(const std::string& workload,
                         const BenchConfig& config);
core::RunReport run_reactive(const std::string& workload,
                             const BenchConfig& config);

/// Normalization helper: steady-state iteration time relative to the
/// DRAM-only run.
double normalized(const core::RunReport& run, const core::RunReport& dram);

/// Parsed artifact-output flag values (apply_artifact_flags).
struct ArtifactFlags {
  std::string report_json;
  std::string explain_out;
  std::string trace_out;
};

/// Register the artifact + fault-injection flags (--trace-out,
/// --report-json, --explain-out, --fault-*) on an existing Flags set.
/// Benches that roll their own flag set call this instead of duplicating
/// the registrations; standard_flags() goes through it too, so every
/// bench exposes the same artifact surface.
void register_artifact_flags(Flags& flags);

/// Apply the artifact + fault flags after parsing: arm the seeded fault
/// injector, enable latency histograms whenever any artifact output is
/// requested, and install the at-exit Chrome-trace export for
/// --trace-out. Returns the parsed paths.
ArtifactFlags apply_artifact_flags(const Flags& flags);

/// Standard flag set (--scale, --csv, --dram-mib, --workers,
/// --deterministic, --trace-out, --report-json, --explain-out); returns the
/// parsed flags after registering bench defaults.
Flags standard_flags();
/// Builds the config; additionally enables global tracing when --trace-out
/// is set (the Chrome trace is exported at process exit), and turns on
/// latency histograms + attribution when any artifact output is requested.
BenchConfig config_from_flags(const Flags& flags, const std::string& nvm_spec);

/// --dram-mib in bytes; zero, or a value whose byte count overflows, is
/// rejected.
std::uint64_t dram_capacity_from_flags(const Flags& flags);

/// Append `report` (with the current counter/gauge/histogram snapshots)
/// as one JSON line to `path`; no-op when `path` is empty.
void append_report_json(const core::RunReport& report,
                        const std::string& path);

/// Append the report's decision provenance (write_explain_json) as one
/// JSON line to `path`; no-op when `path` is empty.
void append_explain_json(const core::RunReport& report,
                         const std::string& path);

/// Print with the standard bench banner; emits CSV too when requested.
void emit(const std::string& title, const Table& table, bool csv);

}  // namespace tahoe::bench
