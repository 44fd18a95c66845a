// Live telemetry: interval time-series over the counter registry, plus a
// declarative SLO watchdog.
//
// Post-mortem observability (one registry snapshot folded into the
// RunReport at exit) says nothing about *when* a run went sideways. The
// TelemetrySampler closes that gap: at a configurable cadence it takes
// one interval from the global CounterRegistry (take_interval, one walk
// under its mutex) and streams one JSONL line per interval to
// --telemetry-out, carrying interval *deltas* — counter deltas and rates,
// gauge levels, histogram bucket-delta digests — never cumulative totals.
// Deltas are what make the stream byte-reproducible: the process-global
// registry accumulates across runs, but the difference between two
// consecutive samples of a seeded simulated run is deterministic, so two
// --deterministic invocations write byte-identical telemetry.
//
// The interval, breach and stall lines are built only when something
// reads them: an open --telemetry-out stream or an armed flight recorder.
// A sampler armed only for its rules or its stall detector evaluates them
// on every interval and serializes nothing.
//
// Two clock modes, mirroring the tracer's two time bases:
//  * Virtual (default): the simulated paths (SimExecutor, serve driver)
//    drive the sampler explicitly via advance_virtual(now) at group
//    boundaries; every cadence boundary crossed since the last call emits
//    one interval. Fully deterministic.
//  * Wall: a background thread ticks at the cadence (real-executor runs,
//    where there is no virtual clock to ride).
//
// The SLO watchdog evaluates declarative rules against each interval
// sample. Rule grammar (comma-separated in --slo-rules):
//
//   kind:metric[.stat] op value[unit]
//
//   kind   counter | gauge | hist
//   stat   counters: rate (default, delta/dt) or delta
//          gauges:   level (default)
//          hists:    p50 | p90 | p99 | mean | count | max of the
//                    *interval delta* snapshot
//   op     < | <= | > | >=      (the condition that must HOLD)
//   unit   ns | us | ms | s     (scales the value to ns, for hist stats)
//
//   e.g.  hist:serve.prod.request_ns.p99 < 250ms
//         gauge:migrate.queue_depth < 8
//         counter:sim.tasks_executed.rate > 1000
//
// A violated rule emits a {"type":"breach"} line, bumps "slo.breaches",
// and (when the flight recorder is armed) triggers a dump. A separate
// no-progress stall detector fires when the progress counters
// (sim.tasks_executed + executor.tasks) show zero delta for K consecutive
// intervals after progress was first observed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/counters.hpp"
#include "trace/histogram.hpp"

namespace tahoe {
class Flags;
}

namespace tahoe::trace {

/// One parsed watchdog rule; see the header comment for the grammar.
struct SloRule {
  enum class Kind { Counter, Gauge, Hist };
  enum class Op { Lt, Le, Gt, Ge };

  std::string text;    ///< original spec, echoed in breach lines
  Kind kind = Kind::Counter;
  std::string metric;  ///< registry name
  std::string stat;    ///< "rate"/"delta"/"level"/"p50"/"p90"/"p99"/...
  Op op = Op::Lt;
  double limit = 0.0;  ///< ns for hist stats when a unit suffix was given

  /// True when `observed` satisfies the rule (no breach).
  bool holds(double observed) const noexcept;
};

/// Parse one rule. Throws ContractError on malformed specs; its message,
/// "SLO rule '<spec>' <defect>", names no source location.
SloRule parse_slo_rule(const std::string& spec);

/// Parse a comma-separated rule list ("" -> empty).
std::vector<SloRule> parse_slo_rules(const std::string& csv);

/// Observed value of `rule` over `sample`. Counters absent from the sample
/// evaluate with a zero delta (so throughput-floor rules catch quiet
/// intervals); gauges and histograms absent from the sample return false
/// and are not evaluated (no level registered / no recordings this
/// interval).
bool slo_observed(const SloRule& rule, const IntervalSample& sample,
                  double* observed);

struct TelemetryConfig {
  std::string out_path;           ///< JSONL stream ("" = no stream)
  double interval_seconds = 0.1;  ///< sampling cadence
  bool wall_clock = false;        ///< false = virtual (driven externally)
  std::vector<SloRule> rules;
  /// Stall detector: breach after this many consecutive zero-progress
  /// intervals (0 disables).
  int stall_intervals = 0;
};

class TelemetrySampler {
 public:
  /// Arm with `config`: resets the interval sequence, starts the first
  /// interval from the registry's current values, (re)opens the output
  /// stream, and starts the background thread in wall-clock mode. A
  /// config with no output, no rules, no stall detector and a disarmed
  /// flight recorder disables the sampler.
  void configure(const TelemetryConfig& config);

  /// Stop the wall-clock thread (if any), flush and close the stream,
  /// disable. Safe to call repeatedly; configure() re-arms.
  void shutdown();

  /// One relaxed load — the gate the virtual-clock drivers check before
  /// calling advance_virtual.
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Virtual-clock driver: `now` is absolute virtual seconds within the
  /// current run (monotonic per run; begin_run resets the epoch). Emits
  /// one interval per cadence boundary crossed since the last call.
  void advance_virtual(double now);

  /// Mark a run/phase boundary: emits a {"type":"phase"} line and restarts
  /// the run-relative clock at zero (the interval sequence number keeps
  /// counting across phases).
  void begin_run(const std::string& label);

  /// Intervals emitted since configure() (test hook).
  std::uint64_t intervals_emitted() const;

 private:
  void emit_interval(double t, double dt);  // mutex_ held
  void wall_loop();
  void stop_thread();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  TelemetryConfig config_;
  std::ofstream out_;
  bool out_open_ = false;
  std::uint64_t seq_ = 0;
  std::uint64_t boundary_ = 0;  ///< intervals emitted in the current run
  std::uint64_t emitted_ = 0;
  std::uint64_t prev_faults_ = 0;
  bool progress_seen_ = false;
  int zero_progress_ = 0;

  std::thread thread_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Process-wide sampler, like global() / global_counters(), and the one
/// sampler of global_counters().
TelemetrySampler& telemetry();

/// Register the --telemetry-* / --slo-* / --flight-* flag set on a
/// binary's Flags instance (the fault::register_flags pattern).
void register_telemetry_flags(Flags& flags);

/// Build a TelemetryConfig from the parsed flags (rules are parsed here;
/// malformed rules throw ContractError).
TelemetryConfig telemetry_config_from_flags(const Flags& flags);

/// Configure (or disable) the global sampler and flight recorder from the
/// parsed flags. Installs a process-exit hook that flushes the stream.
void configure_telemetry_from_flags(const Flags& flags);

/// Satellite of the tracer: publish Tracer::dropped() into the registry as
/// the "trace.dropped_events" counter (registered only once drops exist,
/// so clean runs' reports are unchanged) and warn once when events were
/// lost to full rings. Called by the report writers and the sampler.
void sync_dropped_events_counter();

}  // namespace tahoe::trace
