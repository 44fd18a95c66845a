// Differential oracle for the rebuilt fluid simulator.
//
// FluidSim's indexed engine (per-device finish-time heaps + lazy
// virtual-time draining) must be observationally equivalent to
// ReferenceFluidSim, the pre-rebuild scan engine whose arithmetic the
// golden reports pin (tests/reference_fluid.hpp). Equivalence means:
// identical completion id-order, completion/start times within 1e-9, and
// per-device busy seconds within 1e-9. Runs whose active flow count stays
// under the default lazy threshold must be *bit-identical* — they execute
// the very same scan arithmetic. The randomized schedules here interleave
// start_flow and step the same way the schedule executor does.
#include "memsim/fluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "memsim/machine.hpp"
#include "reference_fluid.hpp"
#include "task/sim_executor.hpp"

namespace tahoe::memsim {
namespace {

constexpr double kTol = 1e-9;

FluidSim::Tuning forced_lazy() {
  FluidSim::Tuning t;
  t.lazy_threshold = 0;  // indexed engine from the first flow
  return t;
}

FlowSpec flow(double serial, std::vector<double> dev, std::uint64_t tag = 0) {
  FlowSpec s;
  s.serial_seconds = serial;
  s.device_seconds = std::move(dev);
  s.tag = tag;
  return s;
}

/// One randomized schedule op, applied to both sims in lockstep.
struct Op {
  enum class Kind { Start, Step } kind = Kind::Start;
  FlowSpec spec;
};

/// `with_eps_specs` mixes in zero-demand and sub-epsilon flows. Those are
/// the one deliberate behavioral divergence from the reference: the rebuilt
/// FluidSim completes them at now() without touching device active counts
/// (the old engine briefly diluted sharing rates by a vanishing amount), so
/// the bit-identity test below excludes them — golden configs contain none.
std::vector<Op> random_schedule(std::uint64_t seed, std::size_t flows,
                                std::size_t devices,
                                bool with_eps_specs = true) {
  Rng rng(seed);
  std::vector<Op> ops;
  std::size_t started = 0;
  while (started < flows) {
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 6) {
      Op op;
      op.kind = Op::Kind::Start;
      op.spec.tag = started;
      // Mix of shapes: serial-only, single-device, multi-device,
      // zero-demand, and sub-epsilon components.
      const std::uint64_t shape =
          with_eps_specs ? rng.next_below(8) : 1 + rng.next_below(7);
      if (shape != 0) {  // shape 0: pure zero-demand flow
        if (shape != 1) {  // shape 1: serial-only
          op.spec.device_seconds.assign(devices, 0.0);
          const std::size_t dev = rng.next_below(devices);
          op.spec.device_seconds[dev] = rng.next_double() * 1e-3;
          for (std::size_t d = 0; d < devices; ++d) {
            if (d != dev && rng.next_below(3) == 0) {
              op.spec.device_seconds[d] = rng.next_double() * 1e-3;
            }
          }
          if (with_eps_specs && rng.next_below(5) == 0) {
            op.spec.device_seconds[rng.next_below(devices)] = 1e-16;
          }
        }
        if (shape == 1 || rng.next_below(2) == 0) {
          op.spec.serial_seconds = rng.next_double() * 1e-3;
        }
      }
      ++started;
      ops.push_back(std::move(op));
    } else {
      Op op;
      op.kind = Op::Kind::Step;
      ops.push_back(op);
    }
  }
  return ops;
}

struct RunLog {
  std::vector<FlowCompletion> completions;
  std::vector<double> busy;
};

template <typename Sim>
RunLog run_schedule(Sim& sim, const std::vector<Op>& ops) {
  RunLog log;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Kind::Start:
        sim.start_flow(op.spec);
        break;
      case Op::Kind::Step: {
        const auto c = sim.step();
        if (c.has_value()) log.completions.push_back(*c);
        break;
      }
    }
  }
  while (true) {
    const auto c = sim.step();
    if (!c.has_value()) break;
    log.completions.push_back(*c);
  }
  for (std::size_t d = 0; d < sim.num_devices(); ++d) {
    log.busy.push_back(sim.device_busy_seconds(d));
  }
  return log;
}

void expect_equivalent(const RunLog& test, const RunLog& oracle,
                       double tol = kTol) {
  ASSERT_EQ(test.completions.size(), oracle.completions.size());
  for (std::size_t i = 0; i < oracle.completions.size(); ++i) {
    EXPECT_EQ(test.completions[i].id, oracle.completions[i].id) << "at " << i;
    EXPECT_EQ(test.completions[i].tag, oracle.completions[i].tag);
    EXPECT_NEAR(test.completions[i].time, oracle.completions[i].time, tol)
        << "completion " << i;
    EXPECT_NEAR(test.completions[i].start_time,
                oracle.completions[i].start_time, tol);
  }
  ASSERT_EQ(test.busy.size(), oracle.busy.size());
  for (std::size_t d = 0; d < oracle.busy.size(); ++d) {
    EXPECT_NEAR(test.busy[d], oracle.busy[d], tol) << "device " << d;
  }
}

TEST(FluidEquivalence, RandomizedTwoTierMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<Op> ops = random_schedule(seed, 200, 2);
    FluidSim sim(2, forced_lazy());
    ReferenceFluidSim ref(2);
    expect_equivalent(run_schedule(sim, ops), run_schedule(ref, ops));
    EXPECT_TRUE(sim.indexed());
  }
}

TEST(FluidEquivalence, RandomizedFourTierMatchesReference) {
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    const std::vector<Op> ops = random_schedule(seed, 200, 4);
    FluidSim sim(4, forced_lazy());
    ReferenceFluidSim ref(4);
    expect_equivalent(run_schedule(sim, ops), run_schedule(ref, ops));
  }
}

TEST(FluidEquivalence, UnderDefaultThresholdIsBitIdentical) {
  // Below Tuning::lazy_threshold FluidSim runs the scan core itself, so
  // every completion time must match the reference to the last bit — this
  // is the property that keeps the golden report JSON byte-stable.
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    // 40 flows total can never exceed the default threshold of 64 active;
    // eps specs are excluded (see random_schedule) — they are the one
    // intentional divergence and get their own test below.
    const std::vector<Op> ops =
        random_schedule(seed, 40, 2, /*with_eps_specs=*/false);
    FluidSim sim(2);
    ReferenceFluidSim ref(2);
    const RunLog a = run_schedule(sim, ops);
    const RunLog b = run_schedule(ref, ops);
    EXPECT_FALSE(sim.indexed());
    ASSERT_EQ(a.completions.size(), b.completions.size());
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
      EXPECT_EQ(a.completions[i].id, b.completions[i].id);
      EXPECT_DOUBLE_EQ(a.completions[i].time, b.completions[i].time);
      EXPECT_DOUBLE_EQ(a.completions[i].start_time,
                       b.completions[i].start_time);
    }
    for (std::size_t d = 0; d < a.busy.size(); ++d) {
      EXPECT_DOUBLE_EQ(a.busy[d], b.busy[d]);
    }
  }
}

TEST(FluidEquivalence, ThresholdCrossingMidRunMatchesReference) {
  // Start enough flows to cross a small threshold mid-run: the in-flight
  // partially-drained flows migrate from the scan core into the indexed
  // engine, and every completion must still line up with the oracle.
  FluidSim::Tuning t;
  t.lazy_threshold = 8;
  const std::vector<Op> ops = random_schedule(31, 100, 2);
  FluidSim sim(2, t);
  ReferenceFluidSim ref(2);
  expect_equivalent(run_schedule(sim, ops), run_schedule(ref, ops));
  EXPECT_TRUE(sim.indexed());
}

TEST(FluidEquivalence, SerialOnlyFlowsMatch) {
  FluidSim sim(2, forced_lazy());
  ReferenceFluidSim ref(2);
  std::vector<Op> ops;
  for (int i = 0; i < 20; ++i) {
    Op start;
    start.kind = Op::Kind::Start;
    start.spec = flow(0.25 * (i % 4 + 1), {}, static_cast<std::uint64_t>(i));
    ops.push_back(std::move(start));
    if (i % 2 == 1) {
      Op step;
      step.kind = Op::Kind::Step;
      ops.push_back(step);
    }
  }
  expect_equivalent(run_schedule(sim, ops), run_schedule(ref, ops));
}

TEST(FluidEquivalence, ZeroDemandFlowsCompleteImmediatelyInBoth) {
  FluidSim sim(1, forced_lazy());
  ReferenceFluidSim ref(1);
  std::vector<Op> ops;
  for (int i = 0; i < 6; ++i) {
    Op start;
    start.kind = Op::Kind::Start;
    start.spec = i % 2 == 0 ? flow(0.0, {0.0}, static_cast<std::uint64_t>(i))
                            : flow(0.0, {0.5}, static_cast<std::uint64_t>(i));
    ops.push_back(std::move(start));
  }
  const RunLog a = run_schedule(sim, ops);
  const RunLog b = run_schedule(ref, ops);
  expect_equivalent(a, b);
  // The zero-demand flows complete at t=0 ahead of every real flow.
  ASSERT_GE(a.completions.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(a.completions[i].time, 0.0);
    EXPECT_EQ(a.completions[i].tag % 2, 0u);
  }
}

// --- property/stress tests for the index structures ----------------------

TEST(FluidEquivalence, SimultaneousCompletionsAcrossDevicesKeepIdOrder) {
  // Four flows, pairwise on different devices, all finishing at t=2 (the
  // demands are dyadic so both engines hit the boundary exactly). The
  // completion stream must be ordered by flow id.
  FluidSim sim(2, forced_lazy());
  ReferenceFluidSim ref(2);
  std::vector<Op> ops;
  for (int i = 0; i < 4; ++i) {
    Op start;
    start.kind = Op::Kind::Start;
    // Two flows per device sharing it equally: 1.0 demand at rate 1/2.
    start.spec = flow(0.0, i % 2 == 0 ? std::vector<double>{1.0, 0.0}
                                      : std::vector<double>{0.0, 1.0},
                      static_cast<std::uint64_t>(i));
    ops.push_back(std::move(start));
  }
  const RunLog a = run_schedule(sim, ops);
  const RunLog b = run_schedule(ref, ops);
  expect_equivalent(a, b);
  ASSERT_EQ(a.completions.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.completions[i].id, i);
    EXPECT_DOUBLE_EQ(a.completions[i].time, 2.0);
  }
}

TEST(FluidEquivalence, FlowSpanningAllDevicesFinishesWithSlowestComponent) {
  FluidSim sim(4, forced_lazy());
  sim.start_flow(flow(0.5, {0.25, 1.0, 0.125, 0.5}));
  const auto c = sim.step();
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->time, 1.0);
  EXPECT_DOUBLE_EQ(sim.device_busy_seconds(1), 1.0);
}

TEST(FluidEquivalence, BusySecondsConserved10kRandomFlows) {
  // Conservation: every channel-second demanded is eventually served, no
  // matter how the processor-sharing rates shifted while draining.
  constexpr std::size_t kFlows = 10000;
  Rng rng(99);
  FluidSim sim(2, forced_lazy());
  std::vector<double> demand(2, 0.0);
  for (std::size_t i = 0; i < kFlows; ++i) {
    FlowSpec s;
    s.device_seconds.assign(2, 0.0);
    s.device_seconds[rng.next_below(2)] = rng.next_double() * 1e-3;
    if (rng.next_below(4) == 0) {
      s.device_seconds[rng.next_below(2)] += rng.next_double() * 1e-3;
    }
    demand[0] += s.device_seconds[0];
    demand[1] += s.device_seconds[1];
    sim.start_flow(std::move(s));
  }
  std::size_t completions = 0;
  while (sim.step().has_value()) ++completions;
  EXPECT_EQ(completions, kFlows);
  EXPECT_EQ(sim.active_flows(), 0u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_NEAR(sim.device_busy_seconds(d), demand[d],
                1e-9 * static_cast<double>(kFlows));
    // A unit-capacity device cannot serve demand faster than wall time.
    EXPECT_GE(sim.now() + 1e-9, sim.device_busy_seconds(d));
  }
}

TEST(FluidEquivalence, Churn10kFlowsDeliversEveryIdOnce) {
  // Open-loop churn at high active counts: each completion triggers a
  // replacement start, exercising slot reuse and heap growth/shrink.
  constexpr std::size_t kActive = 1000;
  constexpr std::size_t kTotal = 10000;
  Rng rng(7);
  FluidSim sim(2, forced_lazy());
  std::size_t started = 0;
  const auto start_one = [&]() {
    FlowSpec s;
    s.device_seconds = {rng.next_double() * 1e-3, rng.next_double() * 1e-3};
    s.tag = started;
    sim.start_flow(std::move(s));
    ++started;
  };
  while (started < kActive) start_one();
  std::vector<bool> seen(kTotal, false);
  while (true) {
    const auto c = sim.step();
    if (!c.has_value()) break;
    ASSERT_LT(c->tag, kTotal);
    EXPECT_FALSE(seen[c->tag]) << "duplicate completion " << c->tag;
    seen[c->tag] = true;
    if (started < kTotal) start_one();
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

// --- FluidSim::start_flow epsilon-spec regression (fixed in this PR) -----

TEST(FluidEquivalence, EpsSpecCompletesAtNowWithoutTouchingActiveCounts) {
  // A spec whose components are all <= the drain epsilon completes at
  // now() immediately. It must never increment device active counts: the
  // in-flight flow below keeps its full-rate share, so it still finishes
  // at t=1.0 exactly (a diluted rate would push it later).
  for (const bool lazy : {false, true}) {
    FluidSim sim(2, lazy ? forced_lazy() : FluidSim::Tuning{});
    sim.start_flow(flow(0.0, {1.0, 0.0}, 1));
    // A serial-only flow brings the clock to 0.5 without sharing device 0.
    sim.start_flow(flow(0.5, {}, 3));
    const auto timer = sim.step();
    ASSERT_TRUE(timer.has_value());
    EXPECT_EQ(timer->tag, 3u);
    EXPECT_DOUBLE_EQ(timer->time, 0.5);
    const FlowId eps_id = sim.start_flow(flow(1e-16, {1e-16, 1e-16}, 2));
    const auto eps = sim.step();
    ASSERT_TRUE(eps.has_value());
    EXPECT_EQ(eps->id, eps_id);
    EXPECT_EQ(eps->tag, 2u);
    EXPECT_DOUBLE_EQ(eps->time, 0.5);
    EXPECT_DOUBLE_EQ(eps->start_time, 0.5);
    const auto real = sim.step();
    ASSERT_TRUE(real.has_value());
    EXPECT_EQ(real->tag, 1u);
    EXPECT_DOUBLE_EQ(real->time, 1.0) << (lazy ? "lazy" : "exact");
  }
}

TEST(FluidEquivalence, RejectsInvalidSpecsInBothEngines) {
  FluidSim lazy_sim(1, forced_lazy());
  EXPECT_THROW(lazy_sim.start_flow(flow(-1.0, {1.0})), ContractError);
  EXPECT_THROW(lazy_sim.start_flow(flow(0.0, {-2.0})), ContractError);
  EXPECT_THROW(lazy_sim.start_flow(flow(0.0, {1.0, 1.0})), ContractError);
  ReferenceFluidSim ref(1);
  EXPECT_THROW(ref.start_flow(flow(-1.0, {1.0})), ContractError);
  EXPECT_THROW(ref.start_flow(flow(0.0, {1.0, 1.0})), ContractError);
}

// --- golden determinism extension ----------------------------------------

TEST(FluidEquivalence, SimExecutorTimingsMatchAcrossEngines) {
  // The schedule executor is the consumer the golden reports are pinned
  // through. Forcing the indexed engine (threshold 1) must reproduce the
  // default run's timings within the oracle tolerance on a copy-heavy
  // multi-group graph.
  const memsim::Machine m = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB), 0.5,
                                       4 * kGiB),
      64 * kMiB);
  task::GraphBuilder gb;
  for (int g = 0; g < 3; ++g) {
    gb.begin_group("g" + std::to_string(g));
    for (int i = 0; i < 12; ++i) {
      task::Task t;
      t.compute_seconds = 1e-5 * (i % 3 + 1);
      task::DataAccess a;
      a.object = static_cast<hms::ObjectId>(i % 4 + 1);
      a.chunk = 0;
      a.mode = task::AccessMode::Read;
      a.traffic.loads = 1 << 16;
      a.traffic.footprint = (1 << 16) * 8;
      t.accesses = {a};
      gb.add_task(std::move(t));
    }
  }
  const task::TaskGraph graph = gb.build();
  std::vector<task::ScheduledCopy> schedule;
  schedule.push_back(task::ScheduledCopy{1, 0, 512 * 1024, memsim::kDram,
                                         0, 1});
  schedule.push_back(task::ScheduledCopy{2, 0, 256 * 1024, memsim::kDram,
                                         1, 2});

  const auto run_with = [&](std::size_t threshold) {
    hms::PlacementMap placement;
    for (hms::ObjectId o = 1; o <= 4; ++o) placement.set(o, 0, memsim::kNvm);
    task::SimExecutor ex;
    task::SimExecutor::Options opts;
    opts.sim_lazy_threshold = threshold;
    return ex.run(graph, m, placement, schedule, opts);
  };
  const task::SimReport def = run_with(0);
  const task::SimReport idx = run_with(1);
  EXPECT_NEAR(def.makespan, idx.makespan, kTol);
  EXPECT_NEAR(def.stall_seconds, idx.stall_seconds, kTol);
  EXPECT_NEAR(def.copy_busy_seconds, idx.copy_busy_seconds, kTol);
  ASSERT_EQ(def.group_seconds.size(), idx.group_seconds.size());
  for (std::size_t g = 0; g < def.group_seconds.size(); ++g) {
    EXPECT_NEAR(def.group_seconds[g], idx.group_seconds[g], kTol);
  }
  ASSERT_EQ(def.task_seconds.size(), idx.task_seconds.size());
  for (std::size_t i = 0; i < def.task_seconds.size(); ++i) {
    EXPECT_NEAR(def.task_seconds[i], idx.task_seconds[i], kTol);
  }
  ASSERT_EQ(def.device_busy_seconds.size(), idx.device_busy_seconds.size());
  for (std::size_t d = 0; d < def.device_busy_seconds.size(); ++d) {
    EXPECT_NEAR(def.device_busy_seconds[d], idx.device_busy_seconds[d], kTol);
  }
  EXPECT_EQ(def.copies_done, idx.copies_done);
  EXPECT_EQ(def.bytes_copied, idx.bytes_copied);
}

}  // namespace
}  // namespace tahoe::memsim
