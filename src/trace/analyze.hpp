// Post-run trace analysis: the library behind the tahoe_inspect CLI.
//
// Consumes the Chrome trace JSON written by chrome_export (plus,
// optionally, the run report and --explain-out documents, in the one
// tier-indexed layout of core/report.hpp) and derives the quantities the
// paper's evaluation cares about: the phase-structured critical path, how
// much data movement was hidden behind computation, per-worker
// utilization, and the placement rationale of the final plan.
//
// Everything here is computed from the serialized artifacts only — no
// access to live runtime state — so analyses are reproducible from the
// files alone and the outputs of two same-seed simulated runs are
// byte-identical (wall-clock-measured fields are deliberately never
// echoed). Malformed input is rejected with std::runtime_error: every
// unsigned field must be a non-negative integer in range, and every
// candidate tier must index the explain document's "tiers".
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "trace/json.hpp"

namespace tahoe::trace {

/// Busy time of one worker lane (a track that executed task spans).
struct WorkerUtilization {
  std::uint64_t track = 0;
  std::string name;               ///< track label ("worker 3")
  std::uint64_t tasks = 0;        ///< task spans on this lane
  double busy_seconds = 0.0;      ///< sum of task span durations
  double utilization = 0.0;       ///< busy / trace makespan
};

/// One row of the placement-rationale table (from the explain document's
/// final plan record).
struct RationaleRow {
  std::string object;
  std::uint64_t chunk = 0;
  std::string pass;  ///< "local" / "global" / "pinned"
  std::uint64_t group = 0;
  /// Destination tier of the candidate (0 for pinned candidates, which
  /// carry none).
  std::uint64_t tier = 0;
  std::string sensitivity;
  double benefit = 0.0;
  double cost = 0.0;
  double extra_cost = 0.0;
  double value = 0.0;
  std::uint64_t bytes = 0;
  bool accepted = false;
  std::string reason;
};

/// Per-tenant serving digest echoed from a report's "tenants" section
/// (multi-tenant serving runs; empty otherwise). Latencies are in
/// nanoseconds, as recorded.
struct TenantAnalysisRow {
  std::string name;
  double priority = 0.0;
  std::uint64_t quota_bytes = 0;
  std::uint64_t fast_bytes = 0;   ///< resident on the fastest tier
  std::uint64_t total_bytes = 0;  ///< total provisioned footprint
  std::uint64_t requests = 0;
  std::uint64_t dropped = 0;
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  std::uint64_t queue_p50_ns = 0;
  std::uint64_t queue_p99_ns = 0;
  std::uint64_t service_p50_ns = 0;
  std::uint64_t service_p99_ns = 0;
};

struct Analysis {
  // Trace metadata.
  std::uint64_t schema_version = 0;
  std::uint64_t dropped_events = 0;

  // Timeline extent (seconds; virtual or wall, whatever the trace used).
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  double makespan_seconds = 0.0;

  /// Phase-structured critical path: per group span, the longest task it
  /// contains (groups are serialized by the phase protocol, so their maxima
  /// add), plus the exposed migration stalls between them.
  double critical_path_seconds = 0.0;
  double critical_path_fraction = 0.0;  ///< / makespan (0 when empty)

  // Data-movement accounting from migrate / migration-stall spans.
  double copy_busy_seconds = 0.0;
  double stall_seconds = 0.0;
  /// (copy_busy - stall) / copy_busy: 1.0 = fully hidden, 0.0 = fully
  /// exposed; 1.0 when nothing moved.
  double overlap_efficiency = 1.0;
  std::uint64_t migrations = 0;
  std::uint64_t bytes_moved = 0;

  std::uint64_t group_spans = 0;
  std::uint64_t task_spans = 0;
  std::vector<WorkerUtilization> workers;

  // From the report document (when provided).
  bool has_report = false;
  /// The report's (or, without one, the explain document's)
  /// schema_version, echoed.
  std::uint64_t report_schema_version = 0;
  std::string workload;
  std::string policy;
  std::string strategy;
  double report_overlap_fraction = 0.0;
  /// Tier names ("tiers") of the report, else of the explain document.
  std::vector<std::string> tier_names;
  /// Per-tenant serving rows ("tenants"); empty for non-serving runs.
  std::vector<TenantAnalysisRow> tenant_rows;

  // From the explain document's last plan (when provided).
  bool has_explain = false;
  double local_gain = 0.0;
  double global_gain = 0.0;
  double predicted_gain = 0.0;
  std::vector<RationaleRow> rationale;
  /// Planned occupancy per destination tier: bytes of distinct accepted
  /// (object, chunk) units of the winning pass, indexed by TierId.
  std::vector<std::uint64_t> planned_tier_bytes;
};

/// Analyze a parsed Chrome trace document; `report` / `explain` are
/// optional (null = the corresponding sections stay empty).
Analysis analyze(const JsonValue& trace_doc, const JsonValue* report,
                 const JsonValue* explain);

/// Deterministic single-line JSON rendering of the analysis (followed by a
/// newline).
void write_analysis_json(std::ostream& os, const Analysis& a);

/// Human-readable rendering: a summary block plus the per-worker and
/// placement-rationale tables.
void write_analysis_tables(std::ostream& os, const Analysis& a);

// ---- telemetry timeline (tahoe_inspect --timeline) ---------------------

/// One telemetry interval, reduced to the headline rates.
struct TimelineInterval {
  std::uint64_t seq = 0;
  double t = 0.0;
  double dt = 0.0;
  std::uint64_t tasks_delta = 0;   ///< sim.tasks_executed + executor.tasks
  double tasks_rate = 0.0;         ///< tasks_delta / dt
  std::uint64_t bytes_delta = 0;   ///< sum of migrate.bytes.* deltas
  double bytes_rate = 0.0;
  std::uint64_t breaches = 0;      ///< breach lines at this seq
};

/// A {"type":"phase"} marker (run boundary).
struct TimelinePhase {
  std::uint64_t seq = 0;
  std::string label;
};

/// A {"type":"breach"} line (SLO violation or stall).
struct TimelineBreach {
  std::uint64_t seq = 0;
  double t = 0.0;
  std::string kind;   ///< "slo" or "stall"
  std::string rule;   ///< original rule text ("" for stalls)
  double observed = 0.0;
  double limit = 0.0;
  std::uint64_t intervals = 0;  ///< stall length (stall breaches only)
};

struct Timeline {
  std::vector<TimelineInterval> rows;
  std::vector<TimelinePhase> phases;
  std::vector<TimelineBreach> breaches;
  double duration_seconds = 0.0;   ///< last interval's t
  std::uint64_t total_tasks = 0;
  std::uint64_t total_bytes = 0;
};

/// Parse a telemetry JSONL stream (the --telemetry-out file) into a
/// Timeline. Unknown line types are skipped; malformed JSON throws
/// std::runtime_error (with the offending line number).
Timeline analyze_timeline(const std::string& jsonl_text);

/// Deterministic single-line JSON rendering of the timeline.
void write_timeline_json(std::ostream& os, const Timeline& tl);

/// Human-readable rendering: interval rate rows with phase boundaries and
/// breach markers inline.
void write_timeline_table(std::ostream& os, const Timeline& tl);

// ---- segment stats (tahoe_inspect --segment-stats) ---------------------

/// Metadata footprint of one arena's range list inside the registry
/// segment (from the hms.segment.arena.<name>.* gauges).
struct SegmentArenaRow {
  std::string name;
  std::uint64_t meta_bytes = 0;   ///< RangeNode bytes in the segment
  std::uint64_t free_ranges = 0;  ///< free ranges on the arena's list

  bool operator==(const SegmentArenaRow&) const = default;
};

/// Storage-layer digest of the hms::Segment hosting the object registry,
/// reconstructed from a report document's hms.segment.* counters/gauges.
struct SegmentStats {
  bool present = false;  ///< any hms.segment.* metric appeared in the report
  // Monotonic counters (segment-allocator call totals).
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  // Gauges (levels at report time).
  std::uint64_t slots_live = 0;       ///< live object slots
  std::uint64_t slot_capacity = 0;    ///< slot-table size
  std::uint64_t bytes_used = 0;       ///< bump high-water inside the segment
  std::uint64_t bytes_capacity = 0;   ///< mapped segment size
  std::uint64_t freelist_blocks = 0;  ///< recycled blocks awaiting reuse
  std::uint64_t freelist_bytes = 0;
  std::vector<SegmentArenaRow> arenas;  ///< name order (map-sorted)

  /// Fraction of the mapped segment consumed by metadata (0 when the
  /// capacity gauge is absent).
  double occupancy() const noexcept {
    return bytes_capacity > 0
               ? static_cast<double>(bytes_used) /
                     static_cast<double>(bytes_capacity)
               : 0.0;
  }
};

/// Extract the segment digest from a parsed report document ("counters" /
/// "gauges" sections). Reports predating the segment layer simply yield
/// present == false.
SegmentStats analyze_segment_stats(const JsonValue& report);

/// Deterministic single-line JSON rendering of the segment stats.
void write_segment_stats_json(std::ostream& os, const SegmentStats& s);

/// Human-readable rendering: a summary block plus the per-arena table.
void write_segment_stats_table(std::ostream& os, const SegmentStats& s);

}  // namespace tahoe::trace
