// Structured event tracing for the runtime.
//
// The tracer records spans (task executions, migration copies), instant
// events (planner decisions, reprofiles) and counter samples (queue depths,
// bytes moved) into per-thread lock-free ring buffers, then exports them as
// Chrome trace_event JSON (chrome://tracing / Perfetto) via
// chrome_export.hpp. Two time bases share one event stream: the real
// Executor and MigrationEngine stamp events with wall-clock seconds
// (now_seconds()), while the SimExecutor and Runtime stamp events with
// virtual simulation time — a single run uses one base or the other, never
// both.
//
// Overhead discipline: emission is a single relaxed atomic load when
// tracing is disabled (the common case), and a wait-free single-producer
// ring push when enabled. A full ring *drops* the event and counts the drop
// — tracing never blocks or allocates on the hot path. Events carry
// fixed-size name/arg storage so a TraceEvent is trivially copyable.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tahoe::trace {

/// Logical timeline tracks. Workers use their index directly; the
/// machinery tracks live in a reserved high range so they never collide
/// with worker ids.
using TrackId = std::uint32_t;
inline constexpr TrackId kMigrationTrack = 0xfff0;  ///< helper-thread engine
inline constexpr TrackId kPlannerTrack = 0xfff1;    ///< decisions/adaptivity
inline constexpr TrackId kRuntimeTrack = 0xfff2;    ///< phases, counters

enum class EventKind : std::uint8_t {
  Complete,  ///< span with explicit start + duration
  Instant,   ///< point event
  Counter,   ///< sampled numeric value (args[0] holds it)
};

/// One trace record. Trivially copyable; names and argument keys are
/// truncated into fixed-size storage so ring slots never own memory.
struct TraceEvent {
  static constexpr std::size_t kNameCap = 40;
  static constexpr std::size_t kKeyCap = 16;
  static constexpr std::size_t kMaxArgs = 4;

  double ts = 0.0;   ///< seconds (wall or virtual, see header comment)
  double dur = 0.0;  ///< Complete spans only
  TrackId track = 0;
  EventKind kind = EventKind::Instant;
  std::uint8_t num_args = 0;
  char name[kNameCap] = {};
  char arg_key[kMaxArgs][kKeyCap] = {};
  std::uint64_t arg_val[kMaxArgs] = {};

  void set_name(const char* n) {
    std::strncpy(name, n, kNameCap - 1);
    name[kNameCap - 1] = '\0';
  }
  void add_arg(const char* key, std::uint64_t value) {
    if (num_args >= kMaxArgs) return;
    std::strncpy(arg_key[num_args], key, kKeyCap - 1);
    arg_key[num_args][kKeyCap - 1] = '\0';
    arg_val[num_args] = value;
    ++num_args;
  }
};

/// Wait-free single-producer / single-consumer ring of TraceEvents. The
/// owning thread pushes; drain() is called by the exporter (any thread).
/// A full ring drops the event and bumps the drop counter instead of
/// blocking — see the header comment.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity_pow2);

  /// Producer side (owning thread only). Returns false on drop.
  bool try_push(const TraceEvent& ev);

  /// Consumer side: move every published event into `out`, in push order.
  void drain(std::vector<TraceEvent>& out);

  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  std::vector<TraceEvent> slots_;
  std::size_t mask_;
  // head_: next write index (producer-owned); tail_: next read index
  // (consumer-owned). Both monotonically increase; occupancy = head - tail.
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// The tracer: a set of per-thread rings plus track metadata. Emission
/// goes through the calling thread's ring, located via a thread_local
/// cache, so concurrent emitters never contend.
class Tracer {
 public:
  /// `ring_capacity` is rounded up to a power of two; it bounds the events
  /// buffered per emitting thread between drains.
  explicit Tracer(std::size_t ring_capacity = 1 << 16);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Record an event (no-op when disabled). Wait-free when enabled.
  void emit(const TraceEvent& ev);

  /// Convenience emitters; all are disabled-checked internally.
  void complete(TrackId track, const char* name, double ts, double dur);
  void complete(TrackId track, const char* name, double ts, double dur,
                const char* k0, std::uint64_t v0);
  void complete(TrackId track, const char* name, double ts, double dur,
                const char* k0, std::uint64_t v0, const char* k1,
                std::uint64_t v1);
  void instant(TrackId track, const char* name, double ts);
  void instant(TrackId track, const char* name, double ts, const char* k0,
               std::uint64_t v0);
  void instant(TrackId track, const char* name, double ts, const char* k0,
               std::uint64_t v0, const char* k1, std::uint64_t v1);
  void counter(TrackId track, const char* name, double ts,
               std::uint64_t value);

  /// Human-readable track label for the exporter (thread-safe).
  void set_track_name(TrackId track, const std::string& name);
  std::vector<std::pair<TrackId, std::string>> track_names() const;

  /// Collect every buffered event from every thread's ring, in per-thread
  /// push order (threads are concatenated, not interleaved). Emitters may
  /// run concurrently; their in-flight events land in the next drain.
  std::vector<TraceEvent> drain();

  /// Total events dropped on full rings since construction.
  std::uint64_t dropped() const;

  /// Number of per-thread rings registered so far (test hook).
  std::size_t num_rings() const;

 private:
  EventRing& ring_for_this_thread();

  std::size_t ring_capacity_;
  std::uint64_t id_;  ///< process-unique; keys the thread-local ring cache
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // guards rings_ growth and track_names_
  std::vector<std::unique_ptr<EventRing>> rings_;
  std::vector<std::pair<TrackId, std::string>> track_names_;
};

/// Process-wide tracer used by the runtime's instrumentation points.
/// Disabled by default; binaries enable it when --trace-out is given.
Tracer& global();

/// Label worker lanes 0..workers-1 and the migration, planner and runtime
/// tracks on global() (no-op while it is disabled). Shared by every run
/// that traces: simulated, real and serving.
void name_standard_tracks(std::uint32_t workers);

/// Monotonic wall-clock seconds since the first call (steady_clock based).
/// Used by the real Executor / MigrationEngine instrumentation.
double now_seconds();

}  // namespace tahoe::trace
