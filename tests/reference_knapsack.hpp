// Reference solver for the multi-tier knapsack: the full-grid, per-state
// scan DP that core::solve_multi replaced. Every state of the
// (cap_g + 1)^T grid is visited for every item, and each state tries the
// constrained tiers in ascending order with a strict `>`, so ties go to
// the lower tier and to "skip". Production must return exactly what this
// returns: the same assignment, the same tier sizes, the same total value
// bit for bit. Kept under tests/ as the differential oracle; nothing in
// src/ calls it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "core/knapsack.hpp"

namespace tahoe::core::reference {

inline std::uint64_t granules_for(std::uint64_t size, std::uint64_t granule) {
  return (size + granule - 1) / granule;
}

inline void finalize_multi(MultiTierResult& r,
                           std::span<const MultiTierItem> items,
                           std::size_t num_tiers) {
  r.total_value = 0.0;
  r.tier_sizes.assign(num_tiers, 0);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const int t = r.assignment[i];
    if (t < 0) continue;
    r.total_value += items[i].values[static_cast<std::size_t>(t)];
    r.tier_sizes[static_cast<std::size_t>(t)] += items[i].size;
  }
}

inline MultiTierResult solve_multi(
    std::span<const MultiTierItem> items,
    std::span<const std::uint64_t> capacities,
    std::size_t state_budget = 1 << 18) {
  const std::size_t T = capacities.size();
  TAHOE_REQUIRE(T >= 1, "solve_multi needs at least one constrained tier");
  TAHOE_REQUIRE(state_budget >= 4, "state budget too small");
  for (const MultiTierItem& it : items) {
    TAHOE_REQUIRE(it.values.size() == T,
                  "item values must match the constrained-tier count");
  }
  MultiTierResult result;
  result.assignment.assign(items.size(), -1);
  if (items.empty()) {
    finalize_multi(result, items, T);
    return result;
  }

  // Per-tier grid: split the state budget evenly across dimensions, but
  // never finer than one byte per granule and never coarser than 1 granule.
  const double per_dim =
      std::pow(static_cast<double>(state_budget), 1.0 / static_cast<double>(T));
  const std::uint64_t grid = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(2048, static_cast<std::uint64_t>(per_dim) - 1));
  std::vector<std::uint64_t> granule(T), cap_g(T);
  std::size_t num_states = 1;
  for (std::size_t t = 0; t < T; ++t) {
    granule[t] = std::max<std::uint64_t>(1, capacities[t] / grid);
    cap_g[t] = capacities[t] / granule[t];
    num_states *= static_cast<std::size_t>(cap_g[t] + 1);
  }

  // Flat index strides (tier 0 fastest-varying).
  std::vector<std::size_t> stride(T);
  std::size_t s = 1;
  for (std::size_t t = 0; t < T; ++t) {
    stride[t] = s;
    s *= static_cast<std::size_t>(cap_g[t] + 1);
  }

  // Forward DP over items; dp[state] = best value with per-tier usage
  // within the state's granule budget. choice[k][state] = tier picked for
  // item k at that state (T = capacity tier / skip).
  std::vector<double> dp(num_states, 0.0), next(num_states, 0.0);
  std::vector<std::vector<std::uint8_t>> choice(
      items.size(), std::vector<std::uint8_t>(num_states,
                                              static_cast<std::uint8_t>(T)));
  std::vector<std::uint64_t> coord(T);
  for (std::size_t k = 0; k < items.size(); ++k) {
    const MultiTierItem& it = items[k];
    std::fill(coord.begin(), coord.end(), 0);
    for (std::size_t st = 0; st < num_states; ++st) {
      double best = dp[st];
      std::uint8_t pick = static_cast<std::uint8_t>(T);
      if (it.size > 0) {
        for (std::size_t t = 0; t < T; ++t) {
          if (it.values[t] <= 0.0) continue;
          const std::uint64_t need = granules_for(it.size, granule[t]);
          if (need > coord[t]) continue;
          const double with =
              dp[st - static_cast<std::size_t>(need) * stride[t]] +
              it.values[t];
          if (with > best) {
            best = with;
            pick = static_cast<std::uint8_t>(t);
          }
        }
      }
      next[st] = best;
      choice[k][st] = pick;
      // Advance mixed-radix coordinates.
      for (std::size_t t = 0; t < T; ++t) {
        if (++coord[t] <= cap_g[t]) break;
        coord[t] = 0;
      }
    }
    dp.swap(next);
  }

  // Reconstruct from the full-capacity state.
  std::size_t st = num_states - 1;
  for (std::size_t k = items.size(); k-- > 0;) {
    const std::uint8_t pick = choice[k][st];
    if (pick < T) {
      result.assignment[k] = static_cast<int>(pick);
      const std::uint64_t need = granules_for(items[k].size, granule[pick]);
      st -= static_cast<std::size_t>(need) * stride[pick];
    }
  }
  finalize_multi(result, items, T);
  for (std::size_t t = 0; t < T; ++t) {
    TAHOE_ASSERT(result.tier_sizes[t] <= capacities[t],
                 "multi-tier DP violated a capacity constraint");
  }
  return result;
}

}  // namespace tahoe::core::reference
