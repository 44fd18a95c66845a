// Throughput gate of the fluid simulator (memsim/fluid.hpp), a perf test
// labelled like perf_smoke and registered only with the benches, so the
// sanitizer configurations, which build none, skip it.
//
// Closed-loop churn at a fixed active-flow population: prefill kActive
// flows, then replace each completion with a fresh random flow until
// `flows` have been simulated. Demands are seeded-random, device-skewed,
// with occasional serial and multi-device components, the shape the
// schedule executor produces. FluidSim switches to its indexed engine once
// the population crosses its lazy threshold; it must clear
// kMinEventsPerSec (starts + completions) in every cell, and at kRatioFlows
// flows it must simulate at least kMinSpeedup times as many flows per
// second as ReferenceFluidSim, the O(active x devices) per-event scan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "memsim/fluid.hpp"
#include "reference_fluid.hpp"

namespace tahoe::memsim {
namespace {

constexpr std::size_t kDevices = 2;
constexpr std::size_t kActive = 1024;
constexpr double kMinEventsPerSec = 100'000.0;
constexpr std::size_t kRatioFlows = 100'000;
constexpr double kMinSpeedup = 5.0;

struct Churn {
  double seconds = 0.0;
  std::uint64_t events = 0;
};

/// Drive `total` flows through `sim`, keeping kActive in flight.
template <typename Sim>
Churn churn(Sim& sim, std::size_t total, std::uint64_t seed) {
  Rng rng(seed);
  Churn res;
  std::size_t started = 0;
  const auto start_one = [&] {
    FlowSpec s;
    s.device_seconds.assign(kDevices, 0.0);
    s.device_seconds[rng.next_below(kDevices)] =
        1e-5 + rng.next_double() * 1e-3;
    if (rng.next_below(4) == 0) {
      s.device_seconds[rng.next_below(kDevices)] += rng.next_double() * 1e-4;
    }
    if (rng.next_below(4) == 0) s.serial_seconds = rng.next_double() * 1e-4;
    s.tag = started;
    sim.start_flow(std::move(s));
    ++started;
    ++res.events;
  };

  const auto begin = std::chrono::steady_clock::now();
  while (started < total && started < kActive) start_one();
  for (std::size_t done = 0; done < total; ++done) {
    if (!sim.step().has_value()) {
      ADD_FAILURE() << "sim ran dry after " << done << " completions";
      break;
    }
    ++res.events;
    if (started < total) start_one();
  }
  const auto end = std::chrono::steady_clock::now();
  res.seconds = std::chrono::duration<double>(end - begin).count();
  return res;
}

TEST(SimThroughput, IndexedEngineClearsTheFloorAndOutrunsTheScan) {
  for (const std::size_t flows : std::vector<std::size_t>{10'000, 100'000}) {
    const std::uint64_t seed = 1000 * kDevices + flows;
    FluidSim sim(kDevices);
    const Churn indexed = churn(sim, flows, seed);
    EXPECT_TRUE(sim.indexed()) << flows << " flows";
    const double events_per_sec =
        static_cast<double>(indexed.events) / indexed.seconds;
    std::printf("%zu devices, %zu flows: indexed %.2f Mevents/s\n", kDevices,
                flows, events_per_sec / 1e6);
    EXPECT_GE(events_per_sec, kMinEventsPerSec) << flows << " flows";
    if (flows < kRatioFlows) continue;

    ReferenceFluidSim ref(kDevices);
    const Churn reference = churn(ref, flows, seed);
    // Both ran `flows` flows, so the tasks/s ratio is the inverse time ratio.
    const double speedup = reference.seconds / indexed.seconds;
    std::printf("%zu devices, %zu flows: %.1fx the reference scan\n",
                kDevices, flows, speedup);
    EXPECT_GE(speedup, kMinSpeedup) << flows << " flows";
  }
}

}  // namespace
}  // namespace tahoe::memsim
