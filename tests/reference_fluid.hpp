// The pre-rebuild fluid simulator, byte for byte: a thin wrapper over
// memsim::detail::ScanFluidCore, the per-event scan that FluidSim still
// runs below its lazy threshold. It is the oracle the differential
// equivalence suite (test_fluid_equivalence) checks FluidSim's indexed
// engine against, and the baseline test_sim_throughput measures its speed
// against.
// Nothing in src/ uses it.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "memsim/fluid.hpp"

namespace tahoe::memsim {

class ReferenceFluidSim {
 public:
  explicit ReferenceFluidSim(std::size_t num_devices) : core_(num_devices) {}

  double now() const noexcept { return core_.now_; }
  std::size_t num_devices() const noexcept {
    return core_.active_on_device_.size();
  }

  /// Start a flow at the current simulated time.
  FlowId start_flow(FlowSpec spec) {
    TAHOE_REQUIRE(spec.device_seconds.size() <= num_devices(),
                  "flow references more devices than the machine has");
    TAHOE_REQUIRE(spec.serial_seconds >= 0.0, "negative serial demand");
    for (double d : spec.device_seconds) {
      TAHOE_REQUIRE(d >= 0.0, "negative device demand");
    }
    // The core never harvests at a start; a flow with nothing to drain
    // completes here, at the current time.
    const FlowId id = core_.start_flow(spec, next_id_++);
    core_.harvest_completions();
    return id;
  }

  /// Number of flows not yet completed.
  std::size_t active_flows() const noexcept { return core_.active_count_; }

  /// Advance simulated time to the next flow completion and return it.
  /// Returns nullopt when no flows are active.
  std::optional<FlowCompletion> step() { return core_.step(); }

  /// Total channel-seconds ever served per device (utilization metric).
  double device_busy_seconds(std::size_t dev) const {
    TAHOE_REQUIRE(dev < core_.busy_seconds_.size(),
                  "device index out of range");
    return core_.busy_seconds_[dev];
  }

 private:
  detail::ScanFluidCore core_;
  FlowId next_id_ = 0;
};

}  // namespace tahoe::memsim
