// Knapsack solvers: DP vs exhaustive oracle property tests.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/knapsack.hpp"
#include "reference_knapsack.hpp"

namespace tahoe::core {
namespace {

TEST(Knapsack, PicksBestSimpleCase) {
  const std::vector<KnapsackItem> items{
      {60, 10.0}, {100, 20.0}, {120, 30.0}};
  const KnapsackResult r = solve(items, 220);
  // Optimal: items 1+2 (value 50, size 220).
  EXPECT_DOUBLE_EQ(r.total_value, 50.0);
  EXPECT_EQ(r.chosen, (std::vector<std::size_t>{1, 2}));
}

TEST(Knapsack, SkipsNonPositiveAndOversized) {
  const std::vector<KnapsackItem> items{
      {10, -5.0}, {10, 0.0}, {1000, 99.0}, {10, 1.0}};
  const KnapsackResult r = solve(items, 100);
  EXPECT_EQ(r.chosen, (std::vector<std::size_t>{3}));
  EXPECT_DOUBLE_EQ(r.total_value, 1.0);
}

TEST(Knapsack, EmptyInputsAndZeroCapacity) {
  EXPECT_TRUE(solve({}, 100).chosen.empty());
  const std::vector<KnapsackItem> items{{10, 1.0}};
  EXPECT_TRUE(solve(items, 0).chosen.empty());
}

TEST(Knapsack, NeverExceedsCapacityUnderCoarseGrid) {
  // The grid rounds sizes *up*, so it stays feasible even where MiB-scale
  // sizes and capacities make each of its 2048 granules many bytes wide.
  constexpr std::uint64_t kScale = (1ULL << 20) + 3;
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<KnapsackItem> items;
    for (int i = 0; i < 12; ++i) {
      items.push_back(KnapsackItem{(rng.next_below(1000) + 1) * kScale,
                                   rng.next_double() * 10.0});
    }
    const std::uint64_t cap = (rng.next_below(3000) + 100) * kScale;
    const KnapsackResult r = solve(items, cap);
    EXPECT_LE(r.total_size, cap);
  }
}

TEST(Knapsack, DpMatchesOracleOnRandomInstances) {
  Rng rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<KnapsackItem> items;
    const std::size_t n = 3 + rng.next_below(10);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(KnapsackItem{rng.next_below(500) + 1,
                                   (rng.next_double() - 0.2) * 20.0});
    }
    const std::uint64_t cap = rng.next_below(1500) + 200;
    const KnapsackResult dp = solve(items, cap);
    const KnapsackResult oracle = reference::solve_exact(items, cap);
    // 2048 granules on cap <= 1700 are one byte each: exact match expected.
    EXPECT_NEAR(dp.total_value, oracle.total_value, 1e-9)
        << "trial " << trial;
    EXPECT_LE(dp.total_size, cap);
  }
}

TEST(Knapsack, LargeInstanceRunsFast) {
  Rng rng(5);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 500; ++i) {
    items.push_back(
        KnapsackItem{(rng.next_below(1u << 26)) + 1, rng.next_double()});
  }
  const KnapsackResult r = solve(items, 1ULL << 28);
  EXPECT_LE(r.total_size, 1ULL << 28);
  EXPECT_GT(r.chosen.size(), 0u);
}

TEST(Knapsack, OracleRejectsHugeInstances) {
  std::vector<KnapsackItem> items(30, KnapsackItem{1, 1.0});
  EXPECT_THROW(reference::solve_exact(items, 10), ContractError);
}

// ---- Multi-choice knapsack (N-tier placement). ----

namespace {

/// Recompute a MultiTierResult's value and per-tier usage from its
/// assignment, so tests catch solvers whose bookkeeping disagrees with
/// their choices.
void check_consistent(std::span<const MultiTierItem> items,
                      std::span<const std::uint64_t> capacities,
                      const MultiTierResult& r) {
  ASSERT_EQ(r.assignment.size(), items.size());
  ASSERT_EQ(r.tier_sizes.size(), capacities.size());
  double value = 0.0;
  std::vector<std::uint64_t> used(capacities.size(), 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int t = r.assignment[i];
    if (t < 0) continue;
    ASSERT_LT(static_cast<std::size_t>(t), capacities.size());
    value += items[i].values[static_cast<std::size_t>(t)];
    used[static_cast<std::size_t>(t)] += items[i].size;
  }
  EXPECT_NEAR(value, r.total_value, 1e-9);
  for (std::size_t t = 0; t < capacities.size(); ++t) {
    EXPECT_LE(used[t], capacities[t]) << "tier " << t;
    EXPECT_EQ(used[t], r.tier_sizes[t]) << "tier " << t;
  }
}

}  // namespace

TEST(MultiKnapsack, OneTierDegeneratesToZeroOne) {
  // The planner places units on a two-tier machine with solve_multi over
  // its one constrained tier, and solve() is that same call, so both must
  // be the 0/1 knapsack exactly: at the textbook DP's 2048-granule grid
  // (the default state budget gives solve_multi the same 2048 granules)
  // they take exactly its items and match its total value bit for bit. A
  // small value set makes ties common; zeros of both signs and negatives
  // are never taken.
  static constexpr double kPalette[] = {-3.0, -0.0, 0.0, 0.5,
                                        1.0,  1.0,  2.5, 4.0};
  Rng rng(11);
  int coarse = 0;  // capacities whose 2048-granule grid leaves a remainder
  for (int trial = 0; trial < 20000; ++trial) {
    // Byte-scale sizes keep granules at one byte; MiB-scale sizes force
    // granules of many bytes and round-up quantization.
    const std::uint64_t scale = rng.next_below(2) == 0 ? 1 : (1ULL << 20) + 3;
    std::vector<KnapsackItem> flat;
    const std::size_t n = rng.next_below(14);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && rng.next_below(5) == 0) {
        flat.push_back(flat.back());  // an exact twin: ties across items
      } else {
        KnapsackItem it;
        it.size =
            rng.next_below(10) == 0 ? 0 : (1 + rng.next_below(40)) * scale;
        it.value = rng.next_below(2) == 0
                       ? kPalette[rng.next_below(std::size(kPalette))]
                       : (rng.next_double() - 0.3) * 10.0;
        flat.push_back(it);
      }
      total += flat.back().size;
    }
    // Tight capacities saturate and leave items larger than the tier; loose
    // ones hold everything.
    const std::uint64_t cap = rng.next_below(2) == 0
                                  ? rng.next_below(total / 2 + 2)
                                  : total + rng.next_below(total + 1);
    coarse += cap >= 2 * 2048 && cap % 2048 != 0 ? 1 : 0;

    std::vector<MultiTierItem> items;
    for (const KnapsackItem& it : flat) {
      items.push_back(MultiTierItem{it.size, {it.value}});
    }
    const std::uint64_t caps[]{cap};
    const KnapsackResult want = reference::solve(flat, cap);
    const MultiTierResult got = solve_multi(items, caps);
    std::vector<std::size_t> on_tier;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (got.assignment[i] == 0) on_tier.push_back(i);
      ASSERT_LE(got.assignment[i], 0) << "trial " << trial;
    }
    ASSERT_EQ(on_tier, want.chosen) << "trial " << trial;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.total_value),
              std::bit_cast<std::uint64_t>(want.total_value))
        << "trial " << trial;
    ASSERT_EQ(got.tier_sizes[0], want.total_size) << "trial " << trial;
    const KnapsackResult zero_one = solve(flat, cap);
    ASSERT_EQ(zero_one.chosen, want.chosen) << "trial " << trial;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(zero_one.total_value),
              std::bit_cast<std::uint64_t>(want.total_value))
        << "trial " << trial;
    ASSERT_EQ(zero_one.total_size, want.total_size) << "trial " << trial;
  }
  EXPECT_GT(coarse, 5000);
}

TEST(MultiKnapsack, PicksBestTierPerItem) {
  // Item 0 is worth more on tier 1, item 1 on tier 0; both fit.
  const std::vector<MultiTierItem> items{
      {50, {1.0, 9.0}},
      {50, {8.0, 2.0}},
  };
  const std::uint64_t caps[]{64, 64};
  const MultiTierResult r = solve_multi(items, caps);
  EXPECT_EQ(r.assignment, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(r.total_value, 17.0);
}

TEST(MultiKnapsack, NonPositiveChoicesStayOnCapacityTier) {
  const std::vector<MultiTierItem> items{
      {10, {-1.0, 0.0}},
      {10, {0.0, -5.0}},
  };
  const std::uint64_t caps[]{100, 100};
  const MultiTierResult r = solve_multi(items, caps);
  EXPECT_EQ(r.assignment, (std::vector<int>{-1, -1}));
  EXPECT_DOUBLE_EQ(r.total_value, 0.0);
}

TEST(MultiKnapsack, TwoTierDpMatchesOracleOnRandomInstances) {
  // Capacities <= 400 with a 2^18 state budget give granule-1 grids, so
  // the DP is exact and must match the brute-force enumeration of all
  // 3^n tier assignments.
  Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<MultiTierItem> items;
    const std::size_t n = 3 + rng.next_below(8);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(MultiTierItem{
          rng.next_below(150) + 1,
          {(rng.next_double() - 0.25) * 10.0,
           (rng.next_double() - 0.25) * 10.0}});
    }
    const std::uint64_t caps[]{rng.next_below(300) + 50,
                               rng.next_below(300) + 50};
    const MultiTierResult dp = solve_multi(items, caps);
    const MultiTierResult oracle = reference::solve_multi_exact(items, caps);
    EXPECT_NEAR(dp.total_value, oracle.total_value, 1e-9)
        << "trial " << trial;
    check_consistent(items, caps, dp);
    check_consistent(items, caps, oracle);
  }
}

TEST(MultiKnapsack, ThreeTierDpMatchesOracle) {
  // Three constrained tiers (a 4-tier machine). Caps <= 60 keep the
  // granule at 1 under the budget's ~63-granule per-tier grid.
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<MultiTierItem> items;
    const std::size_t n = 3 + rng.next_below(6);
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(MultiTierItem{
          rng.next_below(25) + 1,
          {(rng.next_double() - 0.25) * 10.0,
           (rng.next_double() - 0.25) * 10.0,
           (rng.next_double() - 0.25) * 10.0}});
    }
    const std::uint64_t caps[]{rng.next_below(50) + 10,
                               rng.next_below(50) + 10,
                               rng.next_below(50) + 10};
    const MultiTierResult dp = solve_multi(items, caps);
    const MultiTierResult oracle = reference::solve_multi_exact(items, caps);
    EXPECT_NEAR(dp.total_value, oracle.total_value, 1e-9)
        << "trial " << trial;
    check_consistent(items, caps, dp);
  }
}

TEST(MultiKnapsack, NeverExceedsAnyTierCapacityUnderCoarseGrid) {
  // Big byte sizes and a tiny state budget force coarse granules; the
  // round-up quantization must keep every tier feasible anyway.
  Rng rng(57);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<MultiTierItem> items;
    for (int i = 0; i < 10; ++i) {
      items.push_back(MultiTierItem{
          (rng.next_below(1u << 24)) + 1,
          {rng.next_double() * 5.0, rng.next_double() * 5.0}});
    }
    const std::uint64_t caps[]{(1ULL << 25) + rng.next_below(1u << 24),
                               (1ULL << 24) + rng.next_below(1u << 23)};
    const MultiTierResult r = solve_multi(items, caps, /*state_budget=*/256);
    check_consistent(items, caps, r);
  }
}

TEST(MultiKnapsack, DeterministicAcrossCalls) {
  const std::vector<MultiTierItem> items{
      {50, {5.0, 5.0}}, {50, {5.0, 5.0}}, {50, {5.0, 5.0}}};
  const std::uint64_t caps[]{100, 50};
  const MultiTierResult a = solve_multi(items, caps);
  const MultiTierResult b = solve_multi(items, caps);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.total_value, 15.0);  // all three fit across the tiers
}

/// One randomized instance for the reference comparison. Each tier's
/// capacity is either tight (at most half the total size, so the tier
/// saturates and some items are larger than it) or loose (well above the
/// total, so reachable usage stops short of the tier's grid).
struct DiffInstance {
  std::vector<MultiTierItem> items;
  std::vector<std::uint64_t> caps;
  std::size_t state_budget = 0;
  bool tight_and_loose = false;
};

/// Per-tier values: half from a small set, which makes ties common (zeros
/// of both signs and negatives are never taken), half continuous; one
/// item in four gets the same value on every tier.
std::vector<double> draw_values(Rng& rng, std::size_t T) {
  static constexpr double kPalette[] = {-3.0, -0.0, 0.0, 0.5,
                                        1.0,  1.0,  2.5, 4.0};
  std::vector<double> values(T);
  for (double& v : values) {
    v = rng.next_below(2) == 0 ? kPalette[rng.next_below(std::size(kPalette))]
                               : (rng.next_double() - 0.3) * 10.0;
  }
  if (rng.next_below(4) == 0) {
    std::fill(values.begin(), values.end(), values[0]);
  }
  return values;
}

DiffInstance make_diff_instance(Rng& rng, std::size_t T) {
  DiffInstance d;
  // Budgets below the default give coarse grids. T = 4 stays small: the
  // full-grid reference would visit 2^18 states per item there.
  static constexpr std::size_t kBudgets[] = {16, 64, 256, 4096, 1 << 18};
  d.state_budget = kBudgets[rng.next_below(T == 4 ? 3 : 5)];
  // Byte-scale sizes keep granules at 1 under large budgets; MiB-scale
  // sizes force granules of many bytes and round-up quantization.
  const std::uint64_t scale = rng.next_below(2) == 0 ? 1 : (1ULL << 20) + 3;
  const std::size_t n = rng.next_below(13);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.next_below(5) == 0) {
      d.items.push_back(d.items.back());  // an exact twin: ties across items
      total += d.items.back().size;
      continue;
    }
    MultiTierItem it;
    it.size = rng.next_below(10) == 0 ? 0 : (1 + rng.next_below(40)) * scale;
    it.values = draw_values(rng, T);
    total += it.size;
    d.items.push_back(std::move(it));
  }
  bool tight = false;
  bool loose = false;
  for (std::size_t t = 0; t < T; ++t) {
    if (rng.next_below(2) == 0) {
      d.caps.push_back(rng.next_below(total / 2 + 2));
      tight = true;
    } else {
      d.caps.push_back(2 * total + 1 + rng.next_below(total + 1));
      loose = true;
    }
  }
  d.tight_and_loose = tight && loose && total > 0;
  return d;
}

// solve_multi sweeps each item over a box bounded by what the items up to
// it can use and by what the items after it can take away; the full-grid
// per-state scan it replaced is kept under tests/ as the reference. Equal
// optima are not enough: the assignment, the tier sizes and the total
// value must match bit for bit, ties included.
TEST(MultiKnapsack, MatchesReferenceScanBitForBit) {
  Rng rng(20240607);
  int tight_and_loose = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    // T = 1..3 throughout, plus T = 4 under a small state budget.
    const std::size_t T = trial % 8 == 7 ? 4 : 1 + trial % 3;
    const DiffInstance d = make_diff_instance(rng, T);
    tight_and_loose += d.tight_and_loose ? 1 : 0;
    const MultiTierResult got = solve_multi(d.items, d.caps, d.state_budget);
    const MultiTierResult want =
        reference::solve_multi(d.items, d.caps, d.state_budget);
    ASSERT_EQ(got.assignment, want.assignment) << "trial " << trial;
    ASSERT_EQ(got.tier_sizes, want.tier_sizes) << "trial " << trial;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.total_value),
              std::bit_cast<std::uint64_t>(want.total_value))
        << "trial " << trial;
    check_consistent(d.items, d.caps, got);
  }
  // The generator must keep producing the regime the reach bound changes
  // most: one tier saturated while another stops short of its grid.
  EXPECT_GT(tight_and_loose, 200);
}

/// Solves `d` both ways and requires the reference's answer bit for bit.
void expect_reference_answer(const DiffInstance& d, int trial) {
  const MultiTierResult got = solve_multi(d.items, d.caps, d.state_budget);
  const MultiTierResult want =
      reference::solve_multi(d.items, d.caps, d.state_budget);
  ASSERT_EQ(got.assignment, want.assignment) << "trial " << trial;
  ASSERT_EQ(got.tier_sizes, want.tier_sizes) << "trial " << trial;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(got.total_value),
            std::bit_cast<std::uint64_t>(want.total_value))
      << "trial " << trial;
  check_consistent(d.items, d.caps, got);
}

/// Shaped like every four-tier lu solve: no item can use tier `out`,
/// because each is larger than it or valued <= 0 there, so that tier's
/// reach is 0 and the DP's boxes are one state deep along it.
DiffInstance make_out_of_reach_instance(Rng& rng, std::size_t out) {
  static constexpr double kNonPositive[] = {-2.0, -0.0, 0.0};
  DiffInstance d;
  d.state_budget = 1 << 18;
  const std::uint64_t scale = rng.next_below(2) == 0 ? 1 : kMiB + 3;
  const std::uint64_t small = (1 + rng.next_below(8)) * scale;
  const std::size_t n = 4 + rng.next_below(13);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.next_below(5) == 0) {
      d.items.push_back(d.items.back());
      total += d.items.back().size;
      continue;
    }
    MultiTierItem it;
    it.size = (1 + rng.next_below(40)) * scale;
    it.values = draw_values(rng, 3);
    if (it.size <= small) {
      it.values[out] = kNonPositive[rng.next_below(std::size(kNonPositive))];
    }
    total += it.size;
    d.items.push_back(std::move(it));
  }
  for (std::size_t t = 0; t < 3; ++t) {
    if (t == out) {
      d.caps.push_back(small);
    } else if (rng.next_below(2) == 0) {
      d.caps.push_back(total / 4 + rng.next_below(total / 4 + 1));
    } else {
      d.caps.push_back(2 * total + rng.next_below(total + 1));
    }
  }
  return d;
}

// lu's tier 0 is out of reach in every four-tier solve; the DP then runs
// along rows one state long unless it merges them into longer runs.
TEST(MultiKnapsack, MatchesReferenceWithATierOutOfReach) {
  Rng rng(20261101);
  for (int trial = 0; trial < 96; ++trial) {
    // Mostly tier 0, as in lu; sometimes an outer tier.
    const std::size_t out = trial % 4 == 3 ? 1 + trial / 4 % 2 : 0;
    const DiffInstance d = make_out_of_reach_instance(rng, out);
    ASSERT_NO_FATAL_FAILURE(expect_reference_answer(d, trial));
    EXPECT_EQ(solve_multi(d.items, d.caps).tier_sizes[out], 0u)
        << "trial " << trial;
  }
}

/// Shaped like nekproxy's 43-item global solve: 20-45 items of a few
/// granules each on three tiers of growing capacity. The first items'
/// reach and what the last items can still take both cut their boxes
/// short of the grid, and the fastest tier saturates.
DiffInstance make_many_small_instance(Rng& rng) {
  DiffInstance d;
  d.state_budget = 1 << 18;
  // About one granule of the fastest tier: the default budget gives each
  // of three tiers 62 granules.
  const std::uint64_t unit = rng.next_below(2) == 0 ? 1 : kMiB + 3;
  d.caps.push_back(unit * (50 + rng.next_below(30)));
  d.caps.push_back(d.caps[0] * (2 + rng.next_below(3)));
  d.caps.push_back(d.caps[1] * (1 + rng.next_below(2)));
  const std::size_t n = 20 + rng.next_below(26);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.next_below(5) == 0) {
      d.items.push_back(d.items.back());
      continue;
    }
    MultiTierItem it;
    it.size = unit * (1 + rng.next_below(6)) + rng.next_below(unit);
    it.values = draw_values(rng, 3);
    d.items.push_back(std::move(it));
  }
  return d;
}

TEST(MultiKnapsack, MatchesReferenceOnManySmallItems) {
  Rng rng(20261102);
  for (int trial = 0; trial < 12; ++trial) {
    const DiffInstance d = make_many_small_instance(rng);
    ASSERT_NO_FATAL_FAILURE(expect_reference_answer(d, trial));
  }
}

/// Shaped like the Bench-scale solves, whose objects are chunked into a
/// few equal sizes: ft's 64 chunks of 16 MiB and one 512 KiB object,
/// nekproxy's 32 and 4 MiB chunks, bt's 208, 41.6 and 2.4 MiB ones. One
/// to three chunk sizes, each repeated with values of its own, and
/// sometimes a lone odd-sized item, on the cxl4t preset's 64, 256 and
/// 512 MiB tiers or on tight and loose ones. A few sizes reach few of a
/// tier's usages, so corners are often usages no subset reaches, needs
/// often share a divisor, and sparse tiers sit beside dense ones.
DiffInstance make_chunked_instance(Rng& rng, std::size_t T) {
  static constexpr std::uint64_t kChunks[] = {
      16 * kMiB,  32 * kMiB,           4 * kMiB,
      208 * kMiB, kMiB * 416 / 10 + 1, kMiB * 24 / 10};
  DiffInstance d;
  d.state_budget = rng.next_below(4) == 0 ? 4096 : 1 << 18;
  // Three tiers' reference grids cost 63^3 states an item, one tier's 2049.
  const std::size_t most = T == 1 ? 64 : 20;
  std::uint64_t total = 0;
  for (std::size_t s = 1 + rng.next_below(3); s-- > 0;) {
    const std::uint64_t size =
        rng.next_below(3) == 0 ? (1 + rng.next_below(40)) * kMiB
                               : kChunks[rng.next_below(std::size(kChunks))];
    for (std::size_t i = 1 + rng.next_below(most); i-- > 0;) {
      d.items.push_back(MultiTierItem{size, draw_values(rng, T)});
      total += size;
    }
  }
  if (rng.next_below(2) == 0) {
    const std::uint64_t odd =
        rng.next_below(2) == 0 ? 512 * kKiB : 1 + rng.next_below(3 * kMiB);
    d.items.push_back(MultiTierItem{odd, draw_values(rng, T)});
    total += odd;
  }
  static constexpr std::uint64_t kCxl4t[] = {64 * kMiB, 256 * kMiB,
                                             512 * kMiB};
  const bool preset = rng.next_below(2) == 0;
  for (std::size_t t = 0; t < T; ++t) {
    if (preset) {
      d.caps.push_back(kCxl4t[t]);
    } else if (rng.next_below(2) == 0) {
      d.caps.push_back(rng.next_below(total / 2 + 2));
    } else {
      d.caps.push_back(total + 1 + rng.next_below(total + 1));
    }
  }
  return d;
}

// Chunked items reach few usages of a tier; solve_multi keeps states only
// for those, and for one usage in each gcd of the needs.
TEST(MultiKnapsack, MatchesReferenceOnChunkedItems) {
  Rng rng(20261021);
  for (int trial = 0; trial < 60; ++trial) {
    const DiffInstance d = make_chunked_instance(rng, 1 + trial % 3);
    ASSERT_NO_FATAL_FAILURE(expect_reference_answer(d, trial));
  }
  // ft's own shape on the cxl4t preset: tier 0 reaches 8 of its 63
  // usages and tier 1 32, so both are sparse; tier 2 reaches all 63.
  DiffInstance ft;
  ft.state_budget = 1 << 18;
  ft.caps = {64 * kMiB, 256 * kMiB, 512 * kMiB};
  const auto worth = [&rng] {
    const double v = 0.5 + rng.next_double();
    return std::vector<double>{v, 0.7 * v, 0.4 * v};
  };
  for (int i = 0; i < 64; ++i) {
    ft.items.push_back(MultiTierItem{16 * kMiB, worth()});
  }
  ft.items.push_back(MultiTierItem{512 * kKiB, worth()});
  ASSERT_NO_FATAL_FAILURE(expect_reference_answer(ft, -1));
}

// Every tier keeps at least two states, no granule and one, so a budget
// bounds the grid only up to log2(budget) tiers; past that the state count
// grows without bound and, from 64 tiers on, wraps.
TEST(MultiKnapsack, RejectsTierCountsTheStateBudgetCannotBound) {
  const auto instance = [](std::size_t T) {
    DiffInstance d;
    d.state_budget = 1 << 18;
    for (std::size_t i = 0; i < 3; ++i) {
      MultiTierItem it{1, std::vector<double>(T)};
      for (std::size_t t = 0; t < T; ++t) {
        it.values[t] = 1.0 + static_cast<double>((i * 7 + t * 3) % 11);
      }
      d.items.push_back(std::move(it));
    }
    d.caps.assign(T, 1);
    return d;
  };
  ASSERT_NO_FATAL_FAILURE(expect_reference_answer(instance(18), 18));
  for (const std::size_t T : {19u, 40u, 64u, 300u}) {
    const DiffInstance d = instance(T);
    EXPECT_THROW(solve_multi(d.items, d.caps), ContractError) << T << " tiers";
  }
  // The same bound holds for any budget: 16 states bound four tiers.
  const DiffInstance four = instance(4);
  EXPECT_NO_THROW(solve_multi(four.items, four.caps, 16));
  const DiffInstance five = instance(5);
  EXPECT_THROW(solve_multi(five.items, five.caps, 16), ContractError);
}

/// One randomized tenant-rows instance for the reference comparison.
struct TenantInstance {
  std::vector<TenantItem> items;
  std::uint64_t capacity = 0;
  std::vector<TenantRow> rows;
  std::uint32_t grid = 2048;
};

/// Tie-heavy instances draw every value from a four-value set and give
/// every tenant priority 1, so tenant curves have long flat runs and equal
/// splits are common; the others mix in twins, zero and negative values
/// and priorities of either side of 1.
TenantInstance make_tenant_instance(Rng& rng, bool tie_heavy) {
  static constexpr double kTies[] = {0.5, 1.0, 2.0, 3.0};
  static constexpr double kEdges[] = {-2.0, -0.0, 0.0};
  static constexpr std::uint64_t kScales[] = {1, kKiB + 7, kMiB + 3};
  TenantInstance d;
  const std::size_t T = 1 + rng.next_below(5);
  // Coarse grids put several items in one granule; 2048 is the default.
  d.grid = rng.next_below(32) == 0
               ? 2048
               : 2 + static_cast<std::uint32_t>(rng.next_below(30));
  const std::uint64_t scale = kScales[rng.next_below(std::size(kScales))];
  const std::size_t n = rng.next_below(14);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.next_below(5) == 0) {
      d.items.push_back(d.items.back());  // an exact twin
      total += d.items.back().size;
      continue;
    }
    TenantItem it;
    it.size = (1 + rng.next_below(40)) * scale;
    if (tie_heavy) {
      it.value = kTies[rng.next_below(std::size(kTies))];
    } else if (rng.next_below(5) == 0) {
      it.value = kEdges[rng.next_below(std::size(kEdges))];
    } else {
      it.value = (rng.next_double() - 0.2) * 10.0;
    }
    it.tenant = static_cast<std::uint32_t>(rng.next_below(T));
    total += it.size;
    d.items.push_back(it);
  }
  d.capacity = rng.next_below(total + 2);
  for (std::size_t t = 0; t < T; ++t) {
    TenantRow row;
    switch (rng.next_below(4)) {
      case 0: row.quota = 0; break;
      case 1: row.quota = d.capacity + 1 + rng.next_below(total + 1); break;
      default: row.quota = rng.next_below(d.capacity + 1); break;
    }
    row.priority = tie_heavy ? 1.0 : 0.25 + rng.next_double() * 4.0;
    d.rows.push_back(row);
  }
  return d;
}

// solve_tenant_rows splits capacity across tenants trying only the grants
// where a tenant's curve rises; the dense split it replaced is kept under
// tests/ as the reference. The chosen items, the sizes and the total value
// must match bit for bit, ties included.
TEST(TenantKnapsack, MatchesReferenceSplitBitForBit) {
  Rng rng(20261017);
  for (int trial = 0; trial < 6000; ++trial) {
    const TenantInstance d = make_tenant_instance(rng, trial % 2 == 0);
    const TenantKnapsackResult got =
        solve_tenant_rows(d.items, d.capacity, d.rows, d.grid);
    const TenantKnapsackResult want =
        reference::solve_tenant_rows(d.items, d.capacity, d.rows, d.grid);
    ASSERT_EQ(got.chosen, want.chosen) << "trial " << trial;
    ASSERT_EQ(got.tenant_sizes, want.tenant_sizes) << "trial " << trial;
    ASSERT_EQ(got.total_size, want.total_size) << "trial " << trial;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.total_value),
              std::bit_cast<std::uint64_t>(want.total_value))
        << "trial " << trial;
  }
}

// Serving units are chunks of a few sizes, so their needs share a unit
// that solve_tenant_rows divides out: serve3t's 1, 2 and 8 MiB chunks on
// its 64-MiB tier are 32, 64 and 256 granules of the default grid.
// make_tenant_instance's sizes rarely share one, so these instances do,
// with quotas off that unit and, in every fourth, a lone odd-sized item
// that brings the unit down to 1. A 64-MiB tier is 2048 granules, a
// multiple of every such unit, so every third instance shrinks the chunks
// to 32, 64 and 256 bytes on a tier of 1–2 KiB, whose granule is a byte
// and whose capacity falls off the unit too.
TEST(TenantKnapsack, MatchesReferenceOnChunkedItems) {
  static constexpr std::uint64_t kChunks[] = {1, 2, 8};
  static constexpr double kTies[] = {0.5, 1.0, 2.0};
  Rng rng(20261020);
  for (int trial = 0; trial < 90; ++trial) {
    const bool tie_heavy = trial % 2 == 0;
    const bool tiny = trial % 3 == 2;
    const std::uint64_t scale = tiny ? 32 : kMiB;
    const std::uint64_t capacity =
        tiny ? 1024 + rng.next_below(1024) : 64 * kMiB;
    const std::size_t T = 1 + rng.next_below(4);
    std::vector<TenantItem> items;
    for (std::size_t t = 0; t < T; ++t) {
      // Each tenant chunks its data in one or two of the sizes.
      const std::uint64_t a =
          scale * kChunks[rng.next_below(std::size(kChunks))];
      const std::uint64_t b =
          scale * kChunks[rng.next_below(std::size(kChunks))];
      for (std::size_t n = rng.next_below(20); n > 0; --n) {
        TenantItem it;
        it.size = rng.next_below(2) == 0 ? a : b;
        it.value = tie_heavy ? kTies[rng.next_below(std::size(kTies))]
                             : (rng.next_double() - 0.1) * 10.0;
        it.tenant = static_cast<std::uint32_t>(t);
        items.push_back(it);
      }
    }
    if (trial % 4 == 3) {
      items.push_back(TenantItem{tiny ? 3 * scale + 1 : 3 * kMiB + 4097, 5.0,
                                 static_cast<std::uint32_t>(
                                     rng.next_below(T))});
    }
    std::vector<TenantRow> rows;
    for (std::size_t t = 0; t < T; ++t) {
      TenantRow row;
      switch (rng.next_below(4)) {
        case 0: row.quota = (1 + rng.next_below(64)) * scale; break;
        case 1: row.quota = capacity + 1 + rng.next_below(capacity); break;
        default: row.quota = rng.next_below(capacity + 1); break;  // off-unit
      }
      row.priority = tie_heavy ? 1.0 : 0.25 + rng.next_double() * 4.0;
      rows.push_back(row);
    }
    const TenantKnapsackResult got = solve_tenant_rows(items, capacity, rows);
    const TenantKnapsackResult want =
        reference::solve_tenant_rows(items, capacity, rows);
    ASSERT_EQ(got.chosen, want.chosen) << "trial " << trial;
    ASSERT_EQ(got.tenant_sizes, want.tenant_sizes) << "trial " << trial;
    ASSERT_EQ(got.total_size, want.total_size) << "trial " << trial;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.total_value),
              std::bit_cast<std::uint64_t>(want.total_value))
        << "trial " << trial;
  }
}

TEST(MultiKnapsack, OracleRejectsHugeInstances) {
  std::vector<MultiTierItem> items(30, MultiTierItem{1, {1.0, 1.0, 1.0}});
  const std::uint64_t caps[]{10, 10, 10};
  EXPECT_THROW(reference::solve_multi_exact(items, caps), ContractError);
}

TEST(Knapsack, DeterministicTieBreaks) {
  const std::vector<KnapsackItem> items{{50, 5.0}, {50, 5.0}, {50, 5.0}};
  const KnapsackResult a = solve(items, 100);
  const KnapsackResult b = solve(items, 100);
  EXPECT_EQ(a.chosen, b.chosen);
  EXPECT_EQ(a.chosen.size(), 2u);
}

}  // namespace
}  // namespace tahoe::core
