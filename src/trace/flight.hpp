// Flight recorder: a bounded "what just happened" capture for faults.
//
// Heavy tracing is too expensive to leave on in a long-running serving
// node, but when a fault fires or an SLO is breached the operator wants
// the recent history, not just the breach line. The FlightRecorder keeps
// two bounded rings — the last K trace events and the last M serialized
// telemetry lines (intervals, phase markers, breach events) — and dumps
// both as one JSON document to a configured path when the telemetry
// sampler observes an injected fault or an SLO breach, or (best-effort)
// when a fatal signal arrives. Steady-state cost is the ring append; the
// dump path is cold.
//
// The recorder is fed by the TelemetrySampler (telemetry.hpp): each
// sampling interval drains the global tracer into the event ring. Because
// Tracer::drain() is destructive, a run that also wants a full
// --trace-out timeline would lose every drained event to the ring, so the
// recorder also keeps a full copy of everything drained, and the chrome
// exporter stitches the two back together at exit (chrome_export.hpp).
// The tracer is on only while a trace export is pending, so the copy
// holds what the tracer would have buffered anyway.
//
// Process-global, like the tracer / counter registry / fault injector:
// the dump triggers live in layers (sampler, signal handler) that cannot
// thread a handle through every caller.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace tahoe::trace {

class FlightRecorder {
 public:
  struct Config {
    std::string out_path;            ///< dump destination ("" = disarmed)
    std::size_t max_events = 2048;   ///< trace-event ring capacity (K)
    std::size_t max_intervals = 64;  ///< telemetry-line ring capacity (M)
  };

  /// Arm (or re-arm) the recorder: clears both rings, resets the dump
  /// count, installs the fatal-signal hook on first arming. An empty
  /// out_path disarms.
  void configure(const Config& config);
  void disarm();
  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Append drained trace events to the bounded ring (oldest evicted) and
  /// to the full copy take_retained() hands out.
  void record_events(const std::vector<TraceEvent>& events);

  /// Append one serialized telemetry JSONL line (interval / phase /
  /// breach) to the bounded line ring.
  void record_line(const std::string& line);

  /// Write the flight document ({"schema":"tahoe_flight_v1", reason,
  /// trigger time, both rings}) to the configured path, overwriting any
  /// previous dump — last trigger wins. Returns false (after a warning)
  /// when disarmed or the file cannot be written. Bumps "flight.dumps"
  /// in the global counter registry.
  bool dump(const std::string& reason, double t);

  /// Move the full copy of every event recorded since arming out
  /// (empties it). Used by the chrome exporter.
  std::vector<TraceEvent> take_retained();

  std::uint64_t dumps() const;

  /// Test hooks: current ring occupancy.
  std::size_t event_count() const;
  std::size_t line_count() const;

 private:
  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  Config config_;
  std::deque<TraceEvent> events_;
  std::deque<std::string> lines_;
  std::vector<TraceEvent> retained_;
  std::uint64_t dumps_ = 0;
};

/// Process-wide flight recorder fed by the telemetry sampler.
FlightRecorder& flight();

}  // namespace tahoe::trace
