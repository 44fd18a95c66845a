// MICRO: google-benchmark microbenchmarks of the runtime's own machinery —
// the components whose cost makes up the paper's "pure runtime cost"
// (sampling, modeling, knapsack decision, dependence derivation, queue and
// allocator operations).
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/knapsack.hpp"
#include "core/planner.hpp"
#include "hms/arena.hpp"
#include "memsim/fluid.hpp"
#include "memsim/sampler.hpp"
#include "task/graph.hpp"
#include "trace/chrome_export.hpp"
#include "trace/counters.hpp"
#include "trace/histogram.hpp"
#include "trace/trace.hpp"

namespace {

using namespace tahoe;

void BM_KnapsackSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  std::vector<core::KnapsackItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(core::KnapsackItem{rng.next_below(64 * kMiB) + 1,
                                       rng.next_double()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve(items, 256 * kMiB));
  }
}
BENCHMARK(BM_KnapsackSolve)->Arg(16)->Arg(64)->Arg(256);

void BM_SamplerSample(benchmark::State& state) {
  memsim::Sampler sampler(1000, 2.4e9, 7);
  memsim::ObjectTraffic t;
  t.loads = 50'000'000;
  t.stores = 10'000'000;
  t.footprint = 256 * kMiB;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(t, 0.1));
  }
}
BENCHMARK(BM_SamplerSample);

void BM_GraphBuild(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    task::GraphBuilder gb;
    gb.begin_group("g");
    for (std::size_t i = 0; i < tasks; ++i) {
      task::Task t;
      task::DataAccess a;
      a.object = static_cast<hms::ObjectId>(i % 8);
      a.mode = i % 3 == 0 ? task::AccessMode::Write : task::AccessMode::Read;
      a.traffic.loads = 1000;
      a.traffic.footprint = 64 * kKiB;
      t.accesses = {a};
      gb.add_task(std::move(t));
    }
    benchmark::DoNotOptimize(gb.build());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_GraphBuild)->Arg(64)->Arg(512);

void BM_FluidSimSteadyLoad(benchmark::State& state) {
  for (auto _ : state) {
    memsim::FluidSim sim(2);
    for (int i = 0; i < 64; ++i) {
      memsim::FlowSpec f;
      f.serial_seconds = 0.001;
      f.device_seconds = {0.001, 0.0005};
      sim.start_flow(f);
    }
    while (sim.step().has_value()) {
    }
    benchmark::DoNotOptimize(sim.now());
  }
}
BENCHMARK(BM_FluidSimSteadyLoad);

void BM_ArenaAllocFree(benchmark::State& state) {
  hms::Arena arena("bench", 256 * kMiB, hms::Backing::Virtual);
  std::vector<void*> live;
  live.reserve(64);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      void* p = arena.alloc(1 * kMiB);
      if (p != nullptr) live.push_back(p);
    }
    for (void* p : live) arena.free(p);
    live.clear();
  }
}
BENCHMARK(BM_ArenaAllocFree);

void BM_Calibration(benchmark::State& state) {
  const memsim::Machine m = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(256 * kMiB), 0.5,
                                       16 * kGiB),
      256 * kMiB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::calibrate(m));
  }
}
BENCHMARK(BM_Calibration);

// The tracing hot path, both ways. Disabled must be a single relaxed load
// (the state every bench run is in); enabled is one wait-free ring push.
void BM_TraceEmitDisabled(benchmark::State& state) {
  trace::Tracer tracer;
  tracer.set_enabled(false);
  for (auto _ : state) {
    if (tracer.enabled()) {
      tracer.complete(0, "task", 0.0, 1e-6, "id", 1);
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceEmitDisabled);

void BM_TraceEmitEnabled(benchmark::State& state) {
  trace::Tracer tracer;
  tracer.set_enabled(true);
  for (auto _ : state) {
    tracer.complete(0, "task", 0.0, 1e-6, "id", 1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitEnabled);

void BM_CounterAdd(benchmark::State& state) {
  trace::CounterRegistry registry;
  trace::Counter& c = registry.get("bench.counter");
  for (auto _ : state) {
    c.increment();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterAdd);

// The histogram hot path, both ways. Disabled is the guard every
// instrumentation site uses (one relaxed load, no record); enabled is a
// bit_width + relaxed fetch_add into a log-spaced bucket.
void BM_HistogramRecordDisabled(benchmark::State& state) {
  trace::set_histograms_enabled(false);
  trace::CounterRegistry registry;
  trace::Histogram& h = registry.histogram("bench.histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    if (trace::histograms_enabled()) h.record(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap lcg
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramRecordDisabled);

void BM_HistogramRecordEnabled(benchmark::State& state) {
  trace::set_histograms_enabled(true);
  trace::CounterRegistry registry;
  trace::Histogram& h = registry.histogram("bench.histogram");
  std::uint64_t v = 1;
  for (auto _ : state) {
    if (trace::histograms_enabled()) h.record(v);
    v = v * 2862933555777941757ULL + 3037000493ULL;
    benchmark::ClobberMemory();
  }
  trace::set_histograms_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecordEnabled);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark aborts on
// flags it does not know, so strip the shared artifact flags first and
// honor them here (timeline of the benchmark process itself).
int main(int argc, char** argv) {
  std::string trace_out;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    constexpr std::string_view kTrace = "--trace-out=";
    if (arg.rfind(kTrace, 0) == 0) {
      trace_out = arg.substr(kTrace.size());
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  if (!trace_out.empty()) tahoe::trace::global().set_enabled(true);

  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!trace_out.empty()) {
    tahoe::trace::export_chrome_trace(trace_out);
  }
  return 0;
}
