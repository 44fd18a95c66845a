// tahoe_perf: shared types of the perf-ledger harness (see README.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/application.hpp"
#include "core/perf_model.hpp"
#include "core/report.hpp"
#include "memsim/machine.hpp"
#include "serve/tenant.hpp"
#include "speed.hpp"
#include "task/sim_executor.hpp"
#include "workloads/heat.hpp"

namespace tahoe::perf {

/// Seed whose simulated outcomes are committed in reference.json. It keeps
/// every stock seed of the runtime (sampler, serve arrivals), so these
/// outcomes equal what the figure benches print.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 25.0;  ///< measured time of the pass loop
  bool quick = false;     ///< smoke configuration (perf_smoke ctest)
};

/// `base` for the default seed, a seed-derived value otherwise. `stream`
/// separates independent draws (sampler vs. each tenant's arrivals).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed,
                          std::uint64_t stream);

/// The seed a pass draws its inputs from: the run's own for pass 0 and the
/// warm-up passes (index < 0), a fresh one per later pass. A run's host
/// times are then medians over many inputs rather than one, so they do not
/// depend on which seed the run was given.
std::uint64_t pass_seed(std::uint64_t seed, int pass);

/// Host cost varies run to run; simulated outcomes are deterministic, so
/// any change in one is a behaviour change rather than noise.
enum class Kind { kHost, kSimulated };

struct Metric {
  std::string unit;
  Kind kind = Kind::kHost;
  double value = 0.0;
  /// Samples behind `value` (passes, set-up repetitions, calls); a single
  /// entry for simulated and one-shot metrics.
  std::vector<double> samples;
};

/// Everything one workload run reports.
struct WorkloadResult {
  std::string name;
  bool correct = true;
  std::vector<std::string> problems;  ///< failed checks, human-readable
  std::uint64_t attempted = 0;  ///< plans, migrations, runs, requests
  std::uint64_t failed = 0;     ///< degraded/failed/aborted/unverified
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  ///< extra human-readable output lines

  void fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
};

/// Called by a pass between its steps (one app's run, say), so that each
/// step is scaled by the machine speed measured right after it.
using Lap = std::function<void()>;

/// One benchmark workload: set-up, then timed passes of the same work.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Threads a pass keeps busy; the machine-speed reference runs on as
  /// many.
  virtual unsigned threads() const { return 1; }
  /// The reference kernel whose slowdowns track this workload's passes.
  /// Set-up runs are simulation work in every workload and are scaled by
  /// kAlloc.
  virtual Profile profile() const { return Profile::kCompute; }
  /// Build the machine, calibrate, and construct every input the passes
  /// reuse. Runs before the warm-up and again after every measured pass,
  /// always producing the same inputs; setup_s times it.
  virtual void setup() = 0;
  /// Discarded passes before timing starts.
  virtual void warm_up() = 0;
  /// One timed pass on the inputs of pass_seed(seed, index), calling `lap`
  /// between its steps. Pass 0 records the simulated outcomes.
  virtual void pass(int index, const Lap& lap) = 0;
  /// Check outcomes and add the workload's own metrics and op counts.
  virtual void finish(WorkloadResult& result) = 0;
};

/// "paper2t", "cxl4t", "real3w" or "serve3t".
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunOptions& options);
const std::vector<std::string>& workload_names();

/// Every per-layer metric (see README), in a fixed order. Metrics derived
/// from spans already recorded in this process reuse them; probes measure
/// the rest.
std::vector<std::pair<std::string, Metric>> layer_metrics(
    const RunOptions& options);

// ---- inputs shared by the workloads and the layer probes ----

/// FIG-9: platform-a, 256 MiB DRAM, NVM at half DRAM bandwidth.
memsim::Machine paper_machine(std::uint64_t seed);
/// FIG-NT: HBM 64 MiB / DRAM 256 MiB / CXL 512 MiB / Optane 16 GiB.
memsim::Machine cxl_machine(std::uint64_t seed);
/// real3w: platform-a with `dram` bytes of DRAM and NVM at half bandwidth.
memsim::Machine real_machine(std::uint64_t dram, std::uint64_t seed);

/// One Tahoe run of paper app `app` (Bench scale, Virtual backing) through
/// the span decorators, its decide() calls spanned as `decide_span`.
core::RunReport run_tahoe(const memsim::Machine& machine,
                          const core::ModelConstants& constants,
                          const std::string& app,
                          const std::string& decide_span);

/// real3w's heat problem: 2048^2 in 16 bands, 10 iterations (Test scale
/// with --quick).
workloads::HeatApp::Config real_heat_config(bool quick);

/// The schedule the Tahoe policy decides last on a simulated run of `app`
/// on `machine` (what real3w enforces with real copies).
std::vector<task::ScheduledCopy> plan_schedule(const memsim::Machine& machine,
                                               core::Application& app);

/// serve3t: the Optane preset with 64 MiB DRAM, three tenants whose
/// arrival rates scale with `scale` (1.0 = 400 prod req/s).
inline constexpr double kServeSeconds = 8.0;  ///< virtual s per ladder step
memsim::Machine serve_machine();
void add_serve_tenants(serve::TenantManager& tm, double scale,
                       std::uint64_t seed);

}  // namespace tahoe::perf
