// Tahoe runtime facade.
//
// Orchestrates the full lifecycle of the paper's system for an iterative
// task-parallel application:
//
//   allocate objects -> (optional) initial placement -> profile the first
//   iterations with sampling counters -> decide placement (policy) ->
//   enforce it with proactive helper-thread migration every remaining
//   iteration -> monitor for workload variation and re-profile when it
//   drifts.
//
// Two execution paths share this orchestration:
//   * run()/run_static() — deterministic simulated timing (all reported
//     numbers come from here);
//   * run_real() — real threads, real kernels, real memcpy migrations,
//     used by integration tests and examples to validate correctness of
//     the data-management machinery.
#pragma once

#include <memory>
#include <optional>

#include "core/application.hpp"
#include "core/policy.hpp"
#include "core/report.hpp"
#include "memsim/machine.hpp"
#include "task/executor.hpp"

namespace tahoe::core {

struct RuntimeConfig {
  memsim::Machine machine;
  /// Virtual backing skips payload allocation/copies; simulation results
  /// are identical. run_real() requires Real.
  hms::Backing backing = hms::Backing::Real;
  std::size_t profile_iterations = 2;
  bool initial_placement = true;
  bool chunking = true;
  bool adaptive = true;
  double adapt_threshold = 0.10;
  /// Modeled cost per collected hardware sample (counter readout).
  double sample_cost_seconds = 50e-9;
  /// Modeled cost of the queue-status check at each phase boundary.
  double sync_cost_seconds = 2e-6;

  // Degradation knobs (all fault-injection aware).
  /// Attempts to reserve DRAM for a planned fill before the object is
  /// pinned to NVM and the policy re-plans.
  int reservation_retries = 3;
  /// Copy-abort retries inside the real migration engine.
  int migration_max_retries = 3;
  /// Phase-boundary wait bound for run_real: if the copies a group needs
  /// are not done within this budget (e.g. a stalled helper), the pending
  /// requests are cancelled and the group proceeds from the source tier.
  /// 0 keeps the original unbounded wait.
  double migration_wait_deadline_seconds = 0.0;
  /// Override for the measured planning cost, making reports
  /// byte-reproducible (golden determinism tests). nullopt keeps the
  /// steady_clock measurement.
  std::optional<double> fixed_decision_seconds;
  /// Collect per-(task type, object) access attribution and per-object
  /// migration tallies into the report (RunReport::attribution/objects).
  /// Costs one map insertion per simulated task access pair, so it is off
  /// by default and enabled alongside --report-json in the binaries.
  bool attribution = false;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config);

  /// Simulated run under a placement policy.
  RunReport run(Application& app, Policy& policy);

  /// Simulated run with every object pinned to one tier (the DRAM-only /
  /// NVM-only baselines). The tier is virtually enlarged to hold the whole
  /// footprint.
  RunReport run_static(Application& app, memsim::DeviceId tier);

  /// Simulated run with a fixed manual placement: the named objects live
  /// in DRAM (whole objects, all chunks), everything else on NVM, and no
  /// migration ever happens. This is the per-object placement-impact
  /// experiment of the paper (its Fig. 4).
  RunReport run_pinned(Application& app,
                       const std::vector<std::string>& dram_objects);

  /// Real execution (threads + memcpy migrations driven by `schedule`).
  /// Returns the application's verify() result.
  bool run_real(Application& app,
                const std::vector<task::ScheduledCopy>& schedule,
                unsigned workers);

  /// Real execution with full degradation bookkeeping: the report carries
  /// verify() in `verified` plus the registry/engine failure counters.
  /// Only deterministic quantities are filled in, so two runs with the
  /// same seeds serialize identically.
  RunReport run_real_report(Application& app,
                            const std::vector<task::ScheduledCopy>& schedule,
                            unsigned workers);

  const memsim::Machine& machine() const noexcept { return config_.machine; }
  const RuntimeConfig& config() const noexcept { return config_; }

 private:
  struct AppState {
    std::unique_ptr<hms::ObjectRegistry> registry;
    std::vector<ObjectInfo> objects;
    hms::PlacementMap placement;
  };

  /// Allocate the app's objects and build the object inventory.
  AppState prepare(Application& app, bool huge_tiers);

  /// Run the policy, then validate that every planned DRAM fill can
  /// actually reserve its space (an armed FaultInjector may veto
  /// reservations). An object whose reservation keeps failing is pinned to
  /// NVM and the policy re-plans without it — the paper runtime's graceful
  /// degradation to a smaller effective DRAM. `pinned` persists across
  /// calls so re-profiling keeps earlier demotions. Every planning round
  /// (including degraded re-plans) is appended to `report.plans` with
  /// object names resolved, tagged with `iteration`.
  PlanDecision decide_validated(Policy& policy, PlanInputs inputs,
                                std::vector<hms::ObjectId>& pinned,
                                RunReport& report, std::size_t iteration);

  RuntimeConfig config_;
};

/// Collect the planner-facing object inventory from a registry.
std::vector<ObjectInfo> collect_objects(const hms::ObjectRegistry& registry);

/// Executor-side half of the migration/computation overlap: derive one
/// scheduling hint per task from the plan's DRAM residency of the task's
/// inputs. A task is `kHot` when every chunk it reads will be DRAM-resident
/// by the time its group starts (current registry placement plus every
/// ScheduledCopy whose needed_group is not after the task's group) and
/// `kCold` otherwise, so the executor defers NVM-bound tasks while their
/// objects' promotions are still in flight. Accesses to objects unknown to
/// the registry are treated as hot. On N-tier machines, `hot_tiers` sets
/// how many of the fastest tiers count as "hot" (the default 1 reproduces
/// the DRAM/NVM split).
std::vector<task::TierHint> compute_tier_hints(
    const task::TaskGraph& graph, const hms::ObjectRegistry& registry,
    const std::vector<task::ScheduledCopy>& schedule,
    memsim::TierId hot_tiers = 1);

}  // namespace tahoe::core
