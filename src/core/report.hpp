// Run reports: everything the evaluation harness prints.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "trace/histogram.hpp"

namespace tahoe::core {

/// One promotion candidate the planner weighed — Eq. (7) inputs plus the
/// verdict. `object_id` is the raw hms::ObjectId (kept as an integer here
/// so the report layer stays dependency-free); the runtime resolves
/// `object` to the allocation name before the record is exported.
struct PlanCandidate {
  std::uint64_t object_id = 0;
  std::string object;        ///< resolved name ("" until the runtime fills it)
  std::size_t chunk = 0;
  std::string pass;          ///< "local" / "global" / "pinned"
  std::size_t group = 0;     ///< phase index (local pass only)
  /// Candidate destination tier (a constrained tier; 0 is DRAM on a
  /// two-tier machine); -1 for pinned candidates. Serialized only in
  /// schema v3 and only when >= 0, so two-tier explain exports keep the
  /// v2 layout, where promoting to DRAM is the only choice.
  int tier = -1;
  std::string sensitivity;   ///< "bandwidth" / "latency" / "mixed" / ""
  double benefit = 0.0;      ///< BFT (modeled seconds saved)
  double cost = 0.0;         ///< COST (exposed movement seconds)
  double extra_cost = 0.0;   ///< eviction cost to make room
  double value = 0.0;        ///< knapsack value = benefit - cost - extra_cost
  std::uint64_t bytes = 0;   ///< knapsack weight (unit size)
  bool accepted = false;
  std::string reason;  ///< "selected"/"non-positive-weight"/"capacity"/...
};

/// One planning round: every decide() call the runtime made, including the
/// degraded re-plans where reservation failures pinned objects to NVM.
struct PlanRecord {
  std::size_t iteration = 0;    ///< iteration at which the decision fired
  int replan_round = 0;         ///< 0 = first plan, >0 = pinned re-plans
  std::string strategy;         ///< winning strategy of this round
  double local_gain = 0.0;      ///< phase-local plan's predicted gain
  double global_gain = 0.0;     ///< cross-phase plan's predicted gain
  double predicted_gain = 0.0;  ///< gain of the winning plan
  std::size_t schedule_copies = 0;
  std::vector<std::string> pinned_nvm;  ///< degradation pins in effect
  std::vector<PlanCandidate> candidates;
};

/// Per-(task group, object) access attribution, aggregated over the run:
/// what each phase did to each object on each tier, in both raw sampled
/// counts and interval-corrected estimates.
struct AttributionRow {
  std::string task_type;  ///< group name (the task-type granularity)
  std::string object;
  std::uint64_t tasks = 0;
  /// Simulated accesses served by each tier, indexed by TierId. Schema v2
  /// (two tiers) spells tiers 0/1 as dram_*/nvm_*.
  std::vector<std::uint64_t> tier_loads;
  std::vector<std::uint64_t> tier_stores;
  std::uint64_t sampled_loads = 0;  ///< raw profiler samples
  std::uint64_t sampled_stores = 0;
  std::uint64_t est_loads = 0;  ///< sampled x interval correction
  std::uint64_t est_stores = 0;
};

/// One (source tier, destination tier) migration flow of an object.
struct TierFlowRow {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t copies = 0;
  std::uint64_t bytes = 0;
};

/// Per-object migration attribution over the run.
struct ObjectMigrationRow {
  std::string object;
  std::uint64_t promotions = 0;  ///< copies to a faster tier that moved bytes
  std::uint64_t evictions = 0;   ///< copies to a slower tier that moved bytes
  std::uint64_t bytes_promoted = 0;
  std::uint64_t bytes_evicted = 0;
  std::uint64_t copies_hidden = 0;  ///< completed outside any group stall
  /// Per-(src, dst) tier-pair flows, sorted by (src, dst); serialized in
  /// schema v3 only.
  std::vector<TierFlowRow> flows;
};

/// Per-tenant serving section of a RunReport (schema v4). Latency and
/// queue-wait digests come from the tenant-labeled request histograms;
/// occupancy is the tenant's fast-tier residency at the end of the run.
struct TenantReportRow {
  std::string name;
  double priority = 1.0;
  std::uint64_t quota_bytes = 0;       ///< effective capacity row (0 = none)
  std::uint64_t fast_bytes = 0;        ///< fast-tier residency (occupancy)
  std::uint64_t total_bytes = 0;       ///< tenant footprint across tiers
  std::uint64_t requests = 0;          ///< completed requests
  std::uint64_t dropped = 0;           ///< requests still queued at shutdown
  trace::HistogramSnapshot request_latency;  ///< arrival -> completion
  trace::HistogramSnapshot queue_wait;       ///< arrival -> service start
  trace::HistogramSnapshot service_time;     ///< service start -> completion
};

struct RunReport {
  std::string workload;
  std::string policy;
  std::string strategy;  ///< "global" / "local" / policy-specific / ""

  /// Device names of the machine's tiers, fastest first. Reports covering
  /// more than two tiers serialize with schema_version 3 (per-tier
  /// attribution and tier-pair migration flows); two-tier (or unset)
  /// reports keep the byte-stable schema_version 2 layout.
  std::vector<std::string> tier_names;

  bool multi_tier() const noexcept { return tier_names.size() > 2; }

  /// Per-tenant serving rows (src/serve/). Non-empty reports serialize
  /// with schema_version 4 and a "tenants" array; empty (the non-serving
  /// case) leaves the v2/v3 layouts byte-identical.
  std::vector<TenantReportRow> tenants;

  bool serving() const noexcept { return !tenants.empty(); }

  std::vector<double> iteration_seconds;  ///< simulated makespan per iter
  double compute_seconds = 0.0;           ///< sum of iteration makespans
  double overhead_seconds = 0.0;          ///< profiling + decision + sync
  double decision_seconds = 0.0;          ///< planning part of the overhead

  std::uint64_t migrations = 0;     ///< copies that actually moved bytes
  std::uint64_t bytes_moved = 0;
  double copy_busy_seconds = 0.0;
  double stall_seconds = 0.0;       ///< exposed (non-overlapped) copy time
  std::size_t reprofiles = 0;       ///< adaptivity-triggered re-decisions

  // Degradation bookkeeping (fault injection and genuine failures alike).
  std::uint64_t failed_no_space = 0;      ///< moves refused: tier full
  std::uint64_t migrations_retried = 0;   ///< retry attempts after aborts
  std::uint64_t migrations_aborted = 0;   ///< requests abandoned after retries
  std::uint64_t migrations_cancelled = 0; ///< requests cancelled pre-copy
  std::uint64_t plans_degraded = 0;       ///< re-plans forced by pinning
  std::uint64_t faults_injected = 0;      ///< injector firings during the run
  bool verified = true;                   ///< numerical check (real runs)

  /// Tasks executed across all iterations (graph size × iterations; on the
  /// real path it is the executor's own tally). Deterministic, unlike the
  /// scheduler's steal/park counters, which are exported through the
  /// counter registry instead.
  std::uint64_t tasks_executed = 0;

  /// Trace events lost to full rings during this run (Tracer::dropped()
  /// delta). Serialized only when nonzero, keeping clean runs' exports
  /// byte-identical to the legacy layout.
  std::uint64_t trace_dropped_events = 0;

  /// Decision provenance: one record per planning round (including
  /// degraded re-plans). Serialized by write_explain_json, not write_json.
  std::vector<PlanRecord> plans;

  /// Per-(task type, object) access attribution and per-object migration
  /// tallies, filled when RuntimeConfig::attribution is on. Sorted by
  /// (task_type, object) / object, so exports are deterministic.
  std::vector<AttributionRow> attribution;
  std::vector<ObjectMigrationRow> objects;

  double total_seconds() const noexcept {
    return compute_seconds + overhead_seconds;
  }

  /// Fraction of data movement hidden behind computation.
  double overlap_fraction() const noexcept {
    if (copy_busy_seconds <= 0.0) return 1.0;
    const double overlapped = copy_busy_seconds - stall_seconds;
    return overlapped > 0.0 ? overlapped / copy_busy_seconds : 0.0;
  }

  /// "Pure runtime cost" of the paper's Table 5: overhead relative to the
  /// total execution time.
  double runtime_cost_fraction() const noexcept {
    const double total = total_seconds();
    return total > 0.0 ? overhead_seconds / total : 0.0;
  }

  /// Mean of the steady-state iterations (skipping the first
  /// `warmup` iterations, default 3: profiling x2 + first enforcement).
  /// Returns 0.0 when there are no post-warmup iterations to average.
  double steady_iteration_seconds(std::size_t warmup = 3) const;

  /// Serialize the report as a single-line JSON object (no trailing
  /// newline) — the machine-readable form benches emit as JSON lines.
  /// Parseable by trace::parse_json. Optional sub-objects: "counters"
  /// (monotonic totals), "gauges" (point-in-time levels — keep these out
  /// of byte-compared exports, they are nondeterministic), "histograms"
  /// (count/percentile digests). The "schema_version" field leads the
  /// object: 2 for two-tier reports (byte-stable legacy layout), 3 when
  /// the report covers more than two tiers ("tiers" list, per-tier
  /// attribution, tier-pair migration flows), 4 when `tenants` is
  /// non-empty (adds the per-tenant serving array). Attribution rows are
  /// emitted under "attribution" and "objects".
  void write_json(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::uint64_t>>& counters = {},
      const std::vector<std::pair<std::string, std::uint64_t>>& gauges = {},
      const std::vector<std::pair<std::string, trace::HistogramSnapshot>>&
          histograms = {}) const;

  /// Serialize the decision provenance (`plans`) as a single JSON object.
  /// Deliberately excludes every wall-clock-measured quantity
  /// (decision_seconds), so two same-seed runs produce byte-identical
  /// output.
  void write_explain_json(std::ostream& os) const;
};

}  // namespace tahoe::core
