// Tahoe placement planner: Eq. (7) weights, local vs global search,
// schedule structure and capacity safety.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "hms/space_manager.hpp"

namespace tahoe::core {
namespace {

constexpr std::uint64_t kObjBytes = 96 * kMiB;

memsim::Machine machine(std::uint64_t dram = 128 * kMiB) {
  return memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(dram), 0.5,
                                       16 * kGiB),
      dram);
}

/// Graph: group 0 streams object 1 heavily; group 1 streams object 2
/// heavily; each lightly reads the other.
task::TaskGraph graph() {
  auto acc = [](hms::ObjectId obj, std::uint64_t loads) {
    task::DataAccess a;
    a.object = obj;
    a.chunk = 0;
    a.mode = task::AccessMode::Read;
    a.traffic.loads = loads;
    a.traffic.footprint = kObjBytes;
    return a;
  };
  task::GraphBuilder gb;
  gb.begin_group("g0");
  {
    task::Task t;
    t.accesses = {acc(1, 40'000'000), acc(2, 100'000)};
    gb.add_task(std::move(t));
  }
  gb.begin_group("g1");
  {
    task::Task t;
    t.accesses = {acc(2, 40'000'000), acc(1, 100'000)};
    gb.add_task(std::move(t));
  }
  return gb.build();
}

PhaseProfiles profiles() {
  PhaseProfiles p;
  p.iterations_profiled = 1;
  p.groups.resize(2);
  p.groups[0].duration_seconds = 0.5;
  p.groups[1].duration_seconds = 0.5;
  auto counts = [](std::uint64_t loads) {
    memsim::SampledCounts c;
    c.loads = loads;
    c.samples_with_access = 950;
    c.total_samples = 1000;
    return c;
  };
  p.groups[0].units[UnitKey{1, 0}] = counts(40'000);
  p.groups[0].units[UnitKey{2, 0}] = counts(100);
  p.groups[1].units[UnitKey{2, 0}] = counts(40'000);
  p.groups[1].units[UnitKey{1, 0}] = counts(100);
  return p;
}

PlanInputs inputs(const task::TaskGraph& g, const memsim::Machine& m,
                  const PhaseProfiles& p) {
  PlanInputs in;
  in.graph = &g;
  in.machine = &m;
  in.profiles = &p;
  in.objects = {
      ObjectInfo{1, "hot0", {kObjBytes}, 0.0},
      ObjectInfo{2, "hot1", {kObjBytes}, 0.0},
  };
  for (const ObjectInfo& o : in.objects) in.current.set(o.id, 0, memsim::kNvm);
  return in;
}

ModelConstants constants(const memsim::Machine& m) {
  return calibrate(m).to_constants();
}

TEST(GroupWeights, HotUnitHasLargeBenefit) {
  const task::TaskGraph g = graph();
  const memsim::Machine m = machine();
  const PhaseProfiles p = profiles();
  const PlanInputs in = inputs(g, m, p);
  const PerfModel model(constants(m), m);
  const auto weights = group_weights(in, model, 0, {}, true);
  ASSERT_EQ(weights.size(), 2u);
  const UnitWeight* hot = nullptr;
  const UnitWeight* cold = nullptr;
  for (const UnitWeight& w : weights) {
    // Two tiers: DRAM is the only constrained tier.
    ASSERT_EQ(w.benefit.size(), 1u);
    (w.unit.object == 1 ? hot : cold) = &w;
  }
  ASSERT_TRUE(hot != nullptr && cold != nullptr);
  EXPECT_GT(hot->benefit[memsim::kDram], 10.0 * cold->benefit[memsim::kDram]);
  EXPECT_GT(hot->weight(memsim::kDram), 0.0);
}

TEST(GroupWeights, ResidentUnitsHaveNoMovementCost) {
  const task::TaskGraph g = graph();
  const memsim::Machine m = machine();
  const PhaseProfiles p = profiles();
  const PlanInputs in = inputs(g, m, p);
  const PerfModel model(constants(m), m);
  const auto weights =
      group_weights(in, model, 0, {{{1, 0}, memsim::kDram}}, true);
  for (const UnitWeight& w : weights) {
    if (w.unit.object == 1) {
      EXPECT_DOUBLE_EQ(w.cost[memsim::kDram], 0.0);
      EXPECT_DOUBLE_EQ(w.extra_cost[memsim::kDram], 0.0);
    }
  }
}

TEST(GroupWeights, EvictionAddsExtraCost) {
  const task::TaskGraph g = graph();
  const memsim::Machine m = machine();  // DRAM 128 MiB, objects 96 MiB
  const PhaseProfiles p = profiles();
  const PlanInputs in = inputs(g, m, p);
  const PerfModel model(constants(m), m);
  // Object 2 resident: placing object 1 requires evicting it.
  const auto weights =
      group_weights(in, model, 0, {{{2, 0}, memsim::kDram}}, true);
  for (const UnitWeight& w : weights) {
    if (w.unit.object == 1) {
      EXPECT_GT(w.extra_cost[memsim::kDram], 0.0);
    }
  }
}

TEST(TahoePolicy, LocalSearchPingPongsScarceDram) {
  const task::TaskGraph g = graph();
  const memsim::Machine m = machine();  // holds only one object
  const PhaseProfiles p = profiles();
  TahoeOptions opts;
  opts.strategy = TahoeOptions::Strategy::LocalOnly;
  TahoePolicy policy(constants(m), opts);
  const PlanDecision d = policy.decide(inputs(g, m, p));
  EXPECT_EQ(d.strategy, "local");
  // The cyclic body must move object 1 in for g0 and object 2 in for g1.
  bool fills_1_for_g0 = false;
  bool fills_2_for_g1 = false;
  for (const task::ScheduledCopy& c : d.schedule) {
    if (c.object == 1 && c.dst == memsim::kDram && c.needed_group == 0) {
      fills_1_for_g0 = true;
    }
    if (c.object == 2 && c.dst == memsim::kDram && c.needed_group == 1) {
      fills_2_for_g1 = true;
    }
  }
  EXPECT_TRUE(fills_1_for_g0);
  EXPECT_TRUE(fills_2_for_g1);
}

TEST(TahoePolicy, GlobalSearchPicksSingleBestSet) {
  const task::TaskGraph g = graph();
  const memsim::Machine m = machine();
  const PhaseProfiles p = profiles();
  TahoeOptions opts;
  opts.strategy = TahoeOptions::Strategy::GlobalOnly;
  TahoePolicy policy(constants(m), opts);
  const PlanDecision d = policy.decide(inputs(g, m, p));
  EXPECT_EQ(d.strategy, "global");
  // Global: only iteration-start (trigger 0, needed 0) copies.
  std::uint64_t dram_bytes = 0;
  for (const task::ScheduledCopy& c : d.schedule) {
    EXPECT_EQ(c.trigger_group, 0u);
    EXPECT_EQ(c.needed_group, 0u);
    if (c.dst == memsim::kDram) dram_bytes += c.bytes;
  }
  EXPECT_LE(dram_bytes, m.tier(memsim::kDram).capacity);
  EXPECT_GT(d.predicted_gain, 0.0);
}

TEST(TahoePolicy, AutoChoosesLargerPredictedGain) {
  const task::TaskGraph g = graph();
  const memsim::Machine m = machine();
  const PhaseProfiles p = profiles();
  TahoePolicy auto_policy(constants(m));
  const PlanDecision d = auto_policy.decide(inputs(g, m, p));

  TahoeOptions lo;
  lo.strategy = TahoeOptions::Strategy::LocalOnly;
  TahoeOptions go;
  go.strategy = TahoeOptions::Strategy::GlobalOnly;
  const double local_gain =
      TahoePolicy(constants(m), lo).decide(inputs(g, m, p)).predicted_gain;
  const double global_gain =
      TahoePolicy(constants(m), go).decide(inputs(g, m, p)).predicted_gain;
  EXPECT_NEAR(d.predicted_gain, std::max(local_gain, global_gain), 1e-9);
}

TEST(TahoePolicy, BigDramGoesGlobalAndKeepsBoth) {
  const task::TaskGraph g = graph();
  const memsim::Machine m = machine(512 * kMiB);  // both objects fit
  const PhaseProfiles p = profiles();
  TahoePolicy policy(constants(m));
  const PlanDecision d = policy.decide(inputs(g, m, p));
  // With room for everything, global search wins (no movement at all).
  EXPECT_EQ(d.strategy, "global");
  std::uint64_t fills = 0;
  for (const task::ScheduledCopy& c : d.schedule) {
    if (c.dst == memsim::kDram) ++fills;
  }
  EXPECT_EQ(fills, 2u);
}

TEST(TahoePolicy, ProvenanceSensitivityFollowsCalibratedThresholds) {
  // The sensitivity thresholds live in ModelConstants alone: a policy
  // built from to_constants(t1, t2) classifies with exactly those values.
  const task::TaskGraph g = graph();
  const memsim::Machine m = machine();
  const PhaseProfiles p = profiles();
  const auto sensitivities = [&](double t1, double t2) {
    TahoePolicy policy(calibrate(m).to_constants(t1, t2));
    std::set<std::string> seen;
    for (const PlanCandidate& c : policy.decide(inputs(g, m, p)).provenance) {
      seen.insert(c.sensitivity);
    }
    return seen;
  };
  // Every profiled unit streams some bytes, so a vanishing t1 makes all
  // of them bandwidth-bound and a huge t2 makes all of them latency-bound.
  EXPECT_EQ(sensitivities(1e-12, 0.0), std::set<std::string>{"bandwidth"});
  EXPECT_EQ(sensitivities(1e12, 1e11), std::set<std::string>{"latency"});
}

TEST(TahoePolicy, ScheduleRespectsLookaheadTriggers) {
  const task::TaskGraph g = graph();
  const memsim::Machine m = machine();
  const PhaseProfiles p = profiles();
  TahoeOptions opts;
  opts.strategy = TahoeOptions::Strategy::LocalOnly;
  TahoePolicy policy(constants(m), opts);
  const PlanDecision d = policy.decide(inputs(g, m, p));
  for (const task::ScheduledCopy& c : d.schedule) {
    EXPECT_LE(c.trigger_group, c.needed_group);
    // Triggers never precede the unit's last reference: object 1 is
    // referenced in g0, so a copy needed at g1 may trigger at g1 only.
    if (c.object == 1 && c.needed_group == 1) {
      EXPECT_EQ(c.trigger_group, 1u);
    }
  }
}

/// Four groups over three objects (48, 32 and 64 MiB) on the 128 MiB-DRAM
/// machine, which holds any two but not all three. Its local plan does not
/// settle in two passes: the first, from all-NVM, ends with objects 1 and
/// 3 in DRAM; the second starts there and ends with objects 2 and 3; only
/// the third returns to its own start, swapping object 2 out for object 1
/// in g1 and back in g2.
PlanInputs three_round_inputs(task::TaskGraph& g, const memsim::Machine& m,
                              PhaseProfiles& p) {
  const std::uint64_t size[]{48 * kMiB, 32 * kMiB, 64 * kMiB};
  struct Access {
    hms::ObjectId object;
    std::uint64_t sampled_loads;
  };
  const std::vector<std::pair<double, std::vector<Access>>> groups{
      {0.6, {{1, 100}, {2, 40'000}}},
      {0.6, {{1, 40'000}, {2, 10'000}}},
      {0.5, {{1, 1'000}, {2, 40'000}, {3, 1'000}}},
      {0.2, {{3, 40'000}}}};
  task::GraphBuilder gb;
  p.iterations_profiled = 1;
  p.groups.resize(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    gb.begin_group("g" + std::to_string(gi));
    task::Task t;
    for (const Access& acc : groups[gi].second) {
      task::DataAccess a;
      a.object = acc.object;
      a.mode = task::AccessMode::Read;
      a.traffic.loads = acc.sampled_loads * 1000;
      a.traffic.footprint = size[acc.object - 1];
      t.accesses.push_back(a);
      memsim::SampledCounts c;
      c.loads = acc.sampled_loads;
      c.samples_with_access = 950;
      c.total_samples = 1000;
      p.groups[gi].units[UnitKey{acc.object, 0}] = c;
    }
    p.groups[gi].duration_seconds = groups[gi].first;
    gb.add_task(std::move(t));
  }
  g = gb.build();
  PlanInputs in;
  in.graph = &g;
  in.machine = &m;
  in.profiles = &p;
  for (hms::ObjectId id = 1; id <= 3; ++id) {
    in.objects.push_back(
        ObjectInfo{id, "o" + std::to_string(id), {size[id - 1]}, 0.0});
    in.current.set(id, 0, memsim::kNvm);
  }
  return in;
}

TEST(TahoePolicy, LocalBodyEndsAtItsOwnStart) {
  task::TaskGraph g;
  const memsim::Machine m = machine();
  PhaseProfiles p;
  const PlanInputs in = three_round_inputs(g, m, p);
  TahoeOptions opts;
  opts.strategy = TahoeOptions::Strategy::LocalOnly;
  const PlanDecision d = TahoePolicy(constants(m), opts).decide(in);
  ASSERT_EQ(d.strategy, "local");
  // Every unit the schedule touches gets exactly one preamble copy, which
  // comes first and sets its iteration-start tier; its last copy sets the
  // tier the body leaves it on. A body that ends at its own start leaves
  // every unit where the preamble put it, so in steady state the preamble
  // moves nothing.
  std::map<std::pair<hms::ObjectId, std::size_t>, memsim::TierId> start, end;
  for (const task::ScheduledCopy& c : d.schedule) {
    start.try_emplace({c.object, c.chunk}, c.dst);
    end[{c.object, c.chunk}] = c.dst;
  }
  EXPECT_EQ(end, start);
  // The body moves data within the iteration (it is a phase-local plan).
  EXPECT_GT(d.schedule.size(), start.size());
}

TEST(CyclicPreamble, ForcesStartResidency) {
  const task::TaskGraph g = graph();
  const memsim::Machine m = machine();
  const PhaseProfiles p = profiles();
  PlanInputs in = inputs(g, m, p);
  in.current.set(1, 0, memsim::kDram);  // leftover resident
  const std::vector<task::ScheduledCopy> body{
      task::ScheduledCopy{2, 0, kObjBytes, memsim::kDram, 1, 1}};
  const auto pre = cyclic_preamble(in, {{{2, 0}, memsim::kDram}}, body);
  // Object 1 (not in start set) must be evicted; object 2 filled.
  bool evicts_1 = false;
  bool fills_2 = false;
  for (const task::ScheduledCopy& c : pre) {
    if (c.object == 1 && c.dst == memsim::kNvm) evicts_1 = true;
    if (c.object == 2 && c.dst == memsim::kDram) fills_2 = true;
    EXPECT_EQ(c.trigger_group, 0u);
    EXPECT_EQ(c.needed_group, 0u);
  }
  EXPECT_TRUE(evicts_1);
  EXPECT_TRUE(fills_2);
}

}  // namespace
}  // namespace tahoe::core
