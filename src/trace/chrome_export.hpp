// Chrome trace_event JSON exporter.
//
// Converts drained TraceEvents into the Trace Event Format understood by
// chrome://tracing and Perfetto: one "process" per run, one named thread
// (track) per worker plus the migration/planner/runtime tracks, "X"
// complete events for spans, "i" instants and "C" counters. Timestamps are
// converted from seconds (wall or virtual — the format does not care) to
// the microseconds the format requires.
#pragma once

#include <ostream>
#include <string>

#include "trace/trace.hpp"

namespace tahoe::trace {

/// Serialize `events` (with the given track labels) as a complete Chrome
/// trace JSON document. Besides "traceEvents" the document carries a
/// top-level "tahoe" object ({"schema_version", "dropped_events"}) so
/// post-run analysis can account for ring-buffer overflow drops; viewers
/// ignore unknown top-level keys.
void write_chrome_trace(
    std::ostream& os, const std::vector<TraceEvent>& events,
    const std::vector<std::pair<TrackId, std::string>>& track_names,
    std::uint64_t dropped_events = 0);

/// Drain the global tracer and write its trace to `path`. Events the
/// telemetry sampler already drained into the flight recorder
/// (FlightRecorder::take_retained) are stitched back first, so a run with
/// both --trace-out and an armed flight recorder still exports its full
/// timeline; the exporter sorts by timestamp, so the stitched stream reads
/// identically to a single drain. Returns false (after logging a warning)
/// when the file cannot be opened. Unnamed tracks get a generated
/// "track <id>" label.
bool export_chrome_trace(const std::string& path);

}  // namespace tahoe::trace
