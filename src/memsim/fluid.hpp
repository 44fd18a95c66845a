// Fluid (processor-sharing) discrete-event simulator of memory channels.
//
// Every unit of concurrent activity — a running task's main-memory stream,
// a helper-thread migration copy — is a *flow*. A flow owns:
//
//   * one private "serial" component (compute time plus the serialized
//     latency chain of dependent accesses), draining at rate 1, and
//   * one component per memory device, sized in channel-seconds (the time
//     the device would need to serve the flow's traffic at full bandwidth).
//
// Each device is a processor-sharing server: its unit capacity is split
// equally among all flows that still have demand on it. A flow completes
// when all of its components have drained. This is the classical fluid
// approximation of bandwidth contention; it reproduces the behaviours the
// paper's evaluation depends on — slowdown under concurrent traffic,
// migration copies stealing bandwidth from computation, and latency-bound
// flows that are insensitive to contention.
//
// The engine is interactive: the caller (the schedule executor) starts
// flows at the current simulated time and steps to the next completion, so
// task-dependence-driven arrivals are expressed naturally.
//
// Two engines implement these semantics:
//
//   * detail::ScanFluidCore — the original O(active flows × devices)
//     per-event scan. Its floating-point arithmetic is pinned byte-for-byte
//     by the golden report JSON in tests/golden/, so it is kept verbatim.
//     ReferenceFluidSim exposes it directly as the oracle for the
//     differential equivalence suite.
//
//   * The indexed engine inside FluidSim — per-device active-flow counts
//     with incrementally maintained processor-sharing rates, a min-heap of
//     component finish times per device (keyed in the device's *virtual
//     service time*, so entries never need rekeying when rates change),
//     and lazy draining: each event advances one virtual clock per device
//     instead of walking every flow. Event cost is O(devices + log flows)
//     instead of O(flows × devices).
//
// FluidSim runs the exact scan core while at most Tuning::lazy_threshold
// flows are active and the indexed engine above that, which tracks the
// scan within 1e-9 (bounded by the oracle suite). The scan is not faster
// at any flow count; it stays only so the golden reports and
// bench/perf/reference.json keep their bit-pinned values.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace tahoe::memsim {

using FlowId = std::uint64_t;

struct FlowSpec {
  /// Private component: drains at rate 1 regardless of contention.
  double serial_seconds = 0.0;
  /// demands[d] = channel-seconds required on device d.
  std::vector<double> device_seconds;
  /// Opaque caller tag (task id, copy id, ...).
  std::uint64_t tag = 0;
};

struct FlowCompletion {
  FlowId id = 0;
  std::uint64_t tag = 0;
  double time = 0.0;        ///< simulated completion time
  double start_time = 0.0;  ///< when the flow was started
};

namespace detail {

/// The original per-event full-scan engine (see file comment). All members
/// are open: ReferenceFluidSim wraps it unchanged, and FluidSim drains it
/// into the indexed engine when crossing the lazy threshold.
struct ScanFluidCore {
  struct Flow {
    double serial_left = 0.0;
    std::vector<double> device_left;
    std::uint64_t tag = 0;
    double start_time = 0.0;
  };

  explicit ScanFluidCore(std::size_t num_devices);

  FlowId start_flow(FlowSpec spec, FlowId id);
  std::optional<FlowCompletion> step();
  double advance(double dt);

  /// Drain all components by `dt` at current rates; updates active counts.
  void drain(double dt);
  /// Earliest time-to-next-component-finish at current rates (infinity if
  /// nothing is draining).
  double next_component_dt() const;
  /// Move flows whose components are all drained to the ready queue.
  void harvest_completions();

  double now_ = 0.0;
  /// Active flows only, ordered by id; completed flows are compacted away.
  std::vector<std::pair<FlowId, Flow>> flows_;
  std::vector<std::uint32_t> active_on_device_;
  std::vector<double> busy_seconds_;
  std::vector<FlowCompletion> ready_;  // FIFO of pending completions
  std::size_t ready_head_ = 0;
  std::size_t active_count_ = 0;
};

}  // namespace detail

/// The pre-rebuild simulator, byte-for-byte: the oracle the differential
/// equivalence suite (tests/test_fluid_equivalence.cpp) checks FluidSim
/// against, and the baseline bench_sim_throughput measures speedups over.
class ReferenceFluidSim {
 public:
  explicit ReferenceFluidSim(std::size_t num_devices);

  double now() const noexcept { return core_.now_; }
  std::size_t num_devices() const noexcept {
    return core_.active_on_device_.size();
  }

  /// Start a flow at the current simulated time.
  FlowId start_flow(FlowSpec spec);

  /// Number of flows not yet completed.
  std::size_t active_flows() const noexcept { return core_.active_count_; }

  /// Advance simulated time to the next flow completion and return it.
  /// Returns nullopt when no flows are active.
  std::optional<FlowCompletion> step() { return core_.step(); }

  /// Advance simulated time by exactly `dt` (or to the next completion,
  /// whichever is earlier) without consuming a completion. Returns the
  /// amount actually advanced.
  double advance(double dt) { return core_.advance(dt); }

  /// Total channel-seconds ever served per device (utilization metric).
  double device_busy_seconds(std::size_t dev) const;

 private:
  detail::ScanFluidCore core_;
  FlowId next_id_ = 0;
};

class FluidSim {
 public:
  struct Tuning {
    /// Switch from the exact scan core to the indexed engine when more
    /// than this many flows are active. 0 forces the indexed engine from
    /// the first flow (used by the equivalence suite). The default is no
    /// speed crossover: it keeps the goldens and reference.json on the
    /// scan's arithmetic (FIG-12's 64-worker runs can go past it).
    std::size_t lazy_threshold = 64;
  };

  explicit FluidSim(std::size_t num_devices);
  FluidSim(std::size_t num_devices, Tuning tuning);

  double now() const noexcept { return lazy_ ? now_ : core_.now_; }
  std::size_t num_devices() const noexcept { return busy_seconds().size(); }

  /// Start a flow at the current simulated time. A spec whose components
  /// are all below the drain epsilon completes immediately at now():
  /// device active counts (and thus sharing rates) are never touched.
  FlowId start_flow(FlowSpec spec);

  /// Number of flows not yet completed.
  std::size_t active_flows() const noexcept {
    return lazy_ ? active_count_ : core_.active_count_;
  }

  /// Advance simulated time to the next flow completion and return it.
  /// Returns nullopt when no flows are active.
  std::optional<FlowCompletion> step();

  /// Advance simulated time by exactly `dt` (or to the next completion,
  /// whichever is earlier) without consuming a completion. Used to model
  /// timed arrivals. Returns the amount actually advanced.
  double advance(double dt);

  /// Total channel-seconds ever served per device (utilization metric).
  double device_busy_seconds(std::size_t dev) const;

  /// True once the indexed engine has taken over (sticky; test hook).
  bool indexed() const noexcept { return lazy_; }

 private:
  /// One (finish key, flow slot) heap entry. Device heaps key on the
  /// device's virtual service time at which the component drains; the
  /// serial heap keys on absolute simulated time. Keys are fixed at flow
  /// start, so rate changes never rekey the heaps.
  struct HeapEntry {
    double key = 0.0;
    std::uint32_t slot = 0;
  };

  struct LazyFlow {
    FlowId id = 0;
    std::uint64_t tag = 0;
    double start_time = 0.0;
    std::uint32_t components_left = 0;
  };

  /// Where the next event's dt was found (device index, or the serial
  /// heap, or nothing active).
  struct NextEvent {
    double dt = 0.0;
    std::size_t device = 0;  ///< valid when source == Source::Device
    enum class Source { None, Serial, Device } source = Source::None;
  };

  void switch_to_lazy();
  FlowId lazy_start_flow(const FlowSpec& spec);
  NextEvent lazy_next_event() const;
  /// Advance the virtual clocks by `dt` and harvest every component that
  /// drains, force-popping `ev`'s entry (the one that defined a full-event
  /// dt) so floating-point rounding can never stall progress.
  void lazy_advance_by(double dt, const NextEvent* ev);
  std::optional<FlowCompletion> lazy_step();
  double lazy_advance(double dt);
  void component_done(std::uint32_t slot);
  std::uint32_t alloc_slot();

  Tuning tuning_;

  // Exact engine (active until the threshold crossing).
  detail::ScanFluidCore core_;

  // Indexed engine state (populated by switch_to_lazy).
  bool lazy_ = false;
  double now_ = 0.0;
  std::size_t active_count_ = 0;
  std::vector<double> busy_seconds_lazy_;
  std::vector<std::uint32_t> active_on_device_;  ///< per-device flow count
  std::vector<double> rate_;       ///< 1 / active count; 0 when idle
  std::vector<double> virtual_;    ///< per-device served-seconds-per-flow clock
  std::vector<std::vector<HeapEntry>> device_heap_;
  std::vector<HeapEntry> serial_heap_;
  std::vector<LazyFlow> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<FlowCompletion> ready_;
  std::size_t ready_head_ = 0;
  /// Flows whose last component drained in the current event; sorted by
  /// flow id before publication so simultaneous completions are emitted in
  /// the same order the scan core's id-ordered harvest produces.
  std::vector<std::uint32_t> finished_this_event_;

  FlowId next_id_ = 0;

  const std::vector<double>& busy_seconds() const noexcept {
    return lazy_ ? busy_seconds_lazy_ : core_.busy_seconds_;
  }
};

}  // namespace tahoe::memsim
