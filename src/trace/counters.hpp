// Runtime metrics registry: named monotonic counters, gauges and
// log-bucketed histograms with cheap updates and coherent snapshots.
//
// Metrics are registered once (mutex-protected name lookup) and then
// updated lock-free through the returned handle — the hot path is one
// relaxed fetch_add (or, for histograms, one bucket fetch_add). The
// runtime snapshots the registry at iteration boundaries to feed both the
// trace timeline (counter tracks) and the machine-readable run export
// (report.hpp).
//
// Interval sampling. Each cell also keeps the value the last
// take_interval() saw, so the telemetry sampler gets an interval's deltas
// from one walk under the mutex. Those values belong to the registry's one
// sampler: telemetry() for the global registry, in every process (each
// tahoe_sweep child arms its own).
//
// Counters vs gauges. A counter is monotonic (add/increment): its exported
// value is a cumulative total and deltas between snapshots are meaningful.
// A gauge is a last-write-wins level (set): queue depths, occupancy. The
// registry tags each metric at first registration so exporters and the
// post-run analyzer never treat a queue-depth sample as a cumulative
// total — they are serialized under separate "counters"/"gauges" keys.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "trace/histogram.hpp"

namespace tahoe::trace {

/// One metric cell. Address-stable for the registry's lifetime. Whether it
/// is a counter or a gauge is a property of its registration, not of the
/// cell: add() for counters, set() for gauges.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  /// For gauges (queue depth): overwrite rather than accumulate.
  void set(std::uint64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One sampling interval's worth of registry change (take_interval).
struct IntervalSample {
  double t = 0.0;   ///< end-of-interval time, run-relative seconds
  double dt = 0.0;  ///< interval length
  /// Counter deltas since the previous sample (only nonzero ones).
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  /// Gauge levels at the sample point (all gauges; levels, not deltas).
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  /// Histogram bucket-wise deltas since the previous sample (only those
  /// with a nonzero interval count).
  std::vector<std::pair<std::string, HistogramSnapshot>> hist_deltas;
};

class CounterRegistry {
 public:
  /// Find-or-create a monotonic counter; the reference stays valid until
  /// the registry dies. If `name` was first registered as a gauge, the
  /// gauge tag sticks (first registration wins).
  Counter& get(const std::string& name);

  /// Find-or-create a gauge (last-write-wins level, updated with set()).
  Counter& gauge(const std::string& name);

  /// Find-or-create a histogram (log-bucketed durations; see
  /// histogram.hpp).
  Histogram& histogram(const std::string& name);

  /// (name, value) pairs sorted by name — counters AND gauges together,
  /// for consumers that sample everything onto trace counter tracks.
  /// Values are relaxed reads: each is individually coherent; the set is a
  /// point-in-time sample.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  /// Monotonic counters only — what belongs in a cumulative-totals export.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot_counters()
      const;

  /// Gauges only — point-in-time levels, meaningless to difference.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot_gauges() const;

  /// All histograms, sorted by name.
  std::vector<std::pair<std::string, HistogramSnapshot>> snapshot_histograms()
      const;

  /// The change since the previous call, each part sorted by name, from
  /// one walk that records what it saw. A counter first seen contributes
  /// its full value, and one that shrank (reset()) restarts from its new
  /// value; gauges are levels. Histograms subtract bucket-wise and restart
  /// when any bucket or the sum shrank; the delta keeps the cumulative
  /// max, an upper bound that keeps percentile clamping safe.
  IntervalSample take_interval(double t, double dt);

  /// Zero every registered metric (between benchmark configurations).
  /// What take_interval() saw stays, so shrunken metrics restart.
  void reset();

  /// Number of scalar metrics (counters + gauges).
  std::size_t size() const;

 private:
  struct Cell {
    Counter counter;
    bool is_gauge = false;
    std::uint64_t sampled = 0;  ///< counter value at the last interval
  };
  struct HistogramCell {
    Histogram histogram;
    HistogramSnapshot sampled;  ///< snapshot at the last interval
  };

  Counter& get_cell(const std::string& name, bool gauge);

  mutable std::mutex mutex_;  // guards the maps and every `sampled`
  std::map<std::string, std::unique_ptr<Cell>> counters_;
  std::map<std::string, std::unique_ptr<HistogramCell>> histograms_;
};

/// Process-wide registry used by the runtime's instrumentation points.
CounterRegistry& global_counters();

}  // namespace tahoe::trace
