// Per-operation cost gate of the instrumentation hot paths, a perf test
// labelled like perf_smoke and registered only with the benches, so the
// sanitizer configurations, which build none, skip it.
//
// Every instrumentation site guards its trace event with Tracer::enabled()
// and its histogram record with histograms_enabled(), one relaxed load
// each, which is what lets observability cost nothing when it is off; the
// counters it keeps are one relaxed fetch_add per Counter::increment. Each
// path runs kOps times per repetition, and the best of kReps repetitions
// must stay under its ceiling. On a 4-vCPU host (g++ 12, RelWithDebInfo)
// the paths took 0.3-0.7, 6-8, 1.0-2.4 and 12-17 ns. The two records'
// ceilings sit about ten times higher; the two off guards' sit lower,
// under the 6-9 ns that one uncontended mutex lock added to either guard
// there, so a lock on a guard fails the gate while a busy host does not.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <limits>

#include "trace/counters.hpp"
#include "trace/histogram.hpp"
#include "trace/trace.hpp"

namespace tahoe::trace {
namespace {

constexpr std::uint64_t kOps = 10'000'000;
constexpr int kReps = 5;

/// Processor nanoseconds per call of `op(i)` over kOps calls. Processor
/// time leaves out the spells a busy host keeps the test off the CPU. The
/// compiler-only fence after every call keeps the calls from being merged
/// or hoisted out of the loop.
template <typename Op>
double ns_per_op(Op op) {
  const std::clock_t begin = std::clock();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    op(i);
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  const double seconds =
      static_cast<double>(std::clock() - begin) / CLOCKS_PER_SEC;
  return seconds * 1e9 / static_cast<double>(kOps);
}

/// A value that walks every histogram bucket as `i` counts up.
std::uint64_t sample_value(std::uint64_t i) {
  return i * 0x9E3779B97F4A7C15ULL;
}

TEST(HotPathCost, EachPathStaysUnderItsCeiling) {
  CounterRegistry registry;
  Counter& counter = registry.get("perf.counter");
  Histogram& histogram = registry.histogram("perf.histogram");
  Tracer& tracer = global();
  ASSERT_FALSE(tracer.enabled());

  const auto trace_guard = [&](std::uint64_t i) {
    if (tracer.enabled()) tracer.complete(0, "task", 0.0, 1e-6, "id", i);
  };
  const auto increment = [&](std::uint64_t) { counter.increment(); };
  const auto guarded_record = [&](std::uint64_t i) {
    if (histograms_enabled()) histogram.record(sample_value(i));
  };

  // The repetitions take turns, so a burst of load on the host slows one
  // repetition of each path rather than every repetition of one.
  struct Path {
    const char* name;
    double ceiling_ns;
    double best_ns = std::numeric_limits<double>::infinity();
  };
  Path paths[] = {{"trace guard, tracer off", 3.0},
                  {"Counter::increment", 60.0},
                  {"histogram guard, off", 5.0},
                  {"Histogram::record, on", 130.0}};
  const auto keep_best = [](Path& path, double ns) {
    path.best_ns = std::min(path.best_ns, ns);
  };
  for (int rep = 0; rep < kReps; ++rep) {
    keep_best(paths[0], ns_per_op(trace_guard));
    keep_best(paths[1], ns_per_op(increment));
    set_histograms_enabled(false);
    keep_best(paths[2], ns_per_op(guarded_record));
    set_histograms_enabled(true);
    keep_best(paths[3], ns_per_op(guarded_record));
    set_histograms_enabled(false);
  }

  for (const Path& path : paths) {
    std::printf("%-28s %6.2f ns/op (ceiling %.0f ns)\n", path.name,
                path.best_ns, path.ceiling_ns);
    EXPECT_LE(path.best_ns, path.ceiling_ns) << path.name;
  }
  // Every timed call ran: none traced, each counted, half recorded.
  constexpr std::uint64_t kCalls = kOps * kReps;
  EXPECT_TRUE(tracer.drain().empty());
  EXPECT_EQ(counter.value(), kCalls);
  EXPECT_EQ(histogram.snapshot().count(), kCalls);
}

}  // namespace
}  // namespace tahoe::trace
