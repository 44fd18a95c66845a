// Reference solvers, kept under tests/ as differential oracles; nothing in
// src/ calls them. First the dense DPs that production replaced: production
// must return exactly what they return, ties included, bit for bit.
//
//  * solve: the textbook 0/1 DP over a capacity/grid granule grid, one row
//    of choice bits per candidate, a strict `>` from the top state down.
//    core::solve, the one-tier core::solve_multi, must match it at 2048.
//  * solve_multi: the full-grid, per-state scan DP that core::solve_multi
//    replaced. Every state of the (cap_g + 1)^T grid is visited for every
//    item, and each state tries the constrained tiers in ascending order
//    with a strict `>`, so ties go to the lower tier and to "skip".
//  * solve_tenant_rows: core::solve_tenant_rows with the dense cross-tenant
//    split, which tries every grant g <= min(C, quota) of every tenant at
//    every capacity C, ascending, with a strict `>`.
//
// Then the exhaustive searches, which give the true optimum of a small
// instance; the grid-rounded DPs may only fall short of it:
//
//  * solve_exact: every subset of at most 24 items.
//  * solve_multi_exact: every one of the (T+1)^n assignments, up to 2^24.
//  * solve_tenant_rows_exact: every subset of at most 20 items.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "core/knapsack.hpp"

namespace tahoe::core::reference {

inline std::uint64_t granules_for(std::uint64_t size, std::uint64_t granule) {
  return (size + granule - 1) / granule;
}

inline void finalize(KnapsackResult& r, std::span<const KnapsackItem> items) {
  std::sort(r.chosen.begin(), r.chosen.end());
  r.total_value = 0.0;
  r.total_size = 0;
  for (std::size_t i : r.chosen) {
    r.total_value += items[i].value;
    r.total_size += items[i].size;
  }
}

inline KnapsackResult solve(std::span<const KnapsackItem> items,
                            std::uint64_t capacity, std::uint32_t grid = 2048) {
  TAHOE_REQUIRE(grid >= 2, "grid too coarse");
  KnapsackResult result;
  if (capacity == 0 || items.empty()) return result;

  // Candidate filtering: positive value, fits alone.
  std::vector<std::size_t> cand;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].value > 0.0 && items[i].size <= capacity &&
        items[i].size > 0) {
      cand.push_back(i);
    }
  }
  if (cand.empty()) return result;

  const std::uint64_t granule =
      std::max<std::uint64_t>(1, capacity / grid);
  const auto cap_g = static_cast<std::size_t>(capacity / granule);

  // dp[c] = best value using capacity c granules; keep choice bits per item
  // row for reconstruction.
  std::vector<double> dp(cap_g + 1, 0.0);
  std::vector<std::vector<bool>> take(cand.size(),
                                      std::vector<bool>(cap_g + 1, false));
  for (std::size_t k = 0; k < cand.size(); ++k) {
    const KnapsackItem& it = items[cand[k]];
    const std::uint64_t need = granules_for(it.size, granule);
    if (need > cap_g) continue;
    for (std::size_t c = cap_g + 1; c-- > need;) {
      const double with = dp[c - need] + it.value;
      if (with > dp[c]) {
        dp[c] = with;
        take[k][c] = true;
      }
    }
  }

  // Reconstruct.
  std::size_t c = cap_g;
  for (std::size_t k = cand.size(); k-- > 0;) {
    if (take[k][c]) {
      result.chosen.push_back(cand[k]);
      c -= static_cast<std::size_t>(
          granules_for(items[cand[k]].size, granule));
    }
  }
  finalize(result, items);
  TAHOE_ASSERT(result.total_size <= capacity,
               "knapsack DP violated the capacity constraint");
  return result;
}

inline KnapsackResult solve_exact(std::span<const KnapsackItem> items,
                                  std::uint64_t capacity) {
  TAHOE_REQUIRE(items.size() <= 24, "exact solver limited to 24 items");
  KnapsackResult best;
  const std::uint32_t n = static_cast<std::uint32_t>(items.size());
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::uint64_t size = 0;
    double value = 0.0;
    bool feasible = true;
    for (std::uint32_t i = 0; i < n && feasible; ++i) {
      if (mask & (1u << i)) {
        size += items[i].size;
        value += items[i].value;
        if (size > capacity) feasible = false;
      }
    }
    if (feasible && value > best.total_value) {
      best.chosen.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) best.chosen.push_back(i);
      }
      best.total_value = value;
      best.total_size = size;
    }
  }
  finalize(best, items);
  return best;
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

inline MultiTierResult solve_multi_exact(
    std::span<const MultiTierItem> items,
    std::span<const std::uint64_t> capacities) {
  const std::size_t T = capacities.size();
  TAHOE_REQUIRE(T >= 1, "solve_multi_exact needs a constrained tier");
  double combos = 1.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    TAHOE_REQUIRE(items[i].values.size() == T,
                  "item values must match the constrained-tier count");
    combos *= static_cast<double>(T + 1);
    TAHOE_REQUIRE(combos <= static_cast<double>(1 << 24),
                  "exact multi-tier solver instance too large");
  }
  MultiTierResult best;
  best.assignment.assign(items.size(), -1);

  std::vector<int> cur(items.size(), -1);
  std::vector<std::uint64_t> used(T, 0);
  double value = 0.0;
  // Depth-first enumeration of all (T+1)^n assignments, pruning branches
  // that overflow a tier capacity.
  const std::function<void(std::size_t)> visit = [&](std::size_t i) {
    if (i == items.size()) {
      if (value > best.total_value) {
        best.assignment = cur;
        best.total_value = value;
      }
      return;
    }
    cur[i] = -1;  // capacity tier: always feasible, value 0
    visit(i + 1);
    for (std::size_t t = 0; t < T; ++t) {
      if (used[t] + items[i].size > capacities[t]) continue;
      cur[i] = static_cast<int>(t);
      used[t] += items[i].size;
      value += items[i].values[t];
      visit(i + 1);
      value -= items[i].values[t];
      used[t] -= items[i].size;
    }
    cur[i] = -1;
  };
  visit(0);
  finalize_multi(best, items, T);
  return best;
}

inline void finalize_tenant(TenantKnapsackResult& r,
                            std::span<const TenantItem> items,
                            std::span<const TenantRow> rows) {
  std::sort(r.chosen.begin(), r.chosen.end());
  r.total_value = 0.0;
  r.total_size = 0;
  r.tenant_sizes.assign(rows.size(), 0);
  for (std::size_t i : r.chosen) {
    const TenantItem& it = items[i];
    r.total_value += it.value * rows[it.tenant].priority;
    r.total_size += it.size;
    r.tenant_sizes[it.tenant] += it.size;
  }
}

inline TenantKnapsackResult solve_tenant_rows(
    std::span<const TenantItem> items, std::uint64_t capacity,
    std::span<const TenantRow> rows, std::uint32_t grid = 2048) {
  TAHOE_REQUIRE(grid >= 2, "grid too coarse");
  TAHOE_REQUIRE(!rows.empty(), "solve_tenant_rows needs tenant rows");
  for (const TenantItem& it : items) {
    TAHOE_REQUIRE(it.tenant < rows.size(), "item tenant out of range");
    TAHOE_REQUIRE(rows[it.tenant].priority > 0.0,
                  "tenant priority must be positive");
  }
  TenantKnapsackResult result;
  result.tenant_sizes.assign(rows.size(), 0);
  if (capacity == 0 || items.empty()) return result;

  const std::uint64_t granule = std::max<std::uint64_t>(1, capacity / grid);
  const auto cap_g = static_cast<std::size_t>(capacity / granule);
  const std::size_t T = rows.size();

  // Stage 1: per-tenant 0/1 DP within min(quota, capacity), on the shared
  // granule so the cross-tenant split composes without rounding drift.
  // Quotas round *down* to whole granules: a plan can only under-use a row.
  std::vector<std::vector<std::size_t>> cand(T);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const TenantItem& it = items[i];
    const std::uint64_t row_cap = std::min(rows[it.tenant].quota, capacity);
    if (it.value > 0.0 && it.size > 0 && it.size <= row_cap) {
      cand[it.tenant].push_back(i);
    }
  }
  std::vector<std::size_t> quota_g(T);
  std::vector<std::vector<double>> dp(T);
  std::vector<std::vector<std::vector<bool>>> take(T);
  for (std::size_t t = 0; t < T; ++t) {
    quota_g[t] = std::min(
        cap_g, static_cast<std::size_t>(std::min(rows[t].quota, capacity) /
                                        granule));
    dp[t].assign(quota_g[t] + 1, 0.0);
    take[t].assign(cand[t].size(),
                   std::vector<bool>(quota_g[t] + 1, false));
    for (std::size_t k = 0; k < cand[t].size(); ++k) {
      const TenantItem& it = items[cand[t][k]];
      const std::uint64_t need = granules_for(it.size, granule);
      if (need > quota_g[t]) continue;
      const double weighted = it.value * rows[t].priority;
      for (std::size_t c = quota_g[t] + 1; c-- > need;) {
        const double with = dp[t][c - need] + weighted;
        if (with > dp[t][c]) {
          dp[t][c] = with;
          take[t][k][c] = true;
        }
      }
    }
  }

  // Stage 2: split the shared capacity across the tenant curves.
  // share[t][C] = granules granted to tenant t in the best split of C
  // granules over tenants 0..t.
  std::vector<double> best(cap_g + 1, 0.0), next(cap_g + 1, 0.0);
  std::vector<std::vector<std::uint32_t>> share(
      T, std::vector<std::uint32_t>(cap_g + 1, 0));
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t c = 0; c <= cap_g; ++c) {
      double b = best[c];
      std::uint32_t pick = 0;
      const std::size_t lim = std::min(c, quota_g[t]);
      for (std::size_t g = 1; g <= lim; ++g) {
        const double with = best[c - g] + dp[t][g];
        if (with > b) {
          b = with;
          pick = static_cast<std::uint32_t>(g);
        }
      }
      next[c] = b;
      share[t][c] = pick;
    }
    best.swap(next);
  }

  // Reconstruct: per-tenant granule grants, then items within each grant.
  std::size_t c = cap_g;
  std::vector<std::size_t> grant(T, 0);
  for (std::size_t t = T; t-- > 0;) {
    grant[t] = share[t][c];
    c -= grant[t];
  }
  for (std::size_t t = 0; t < T; ++t) {
    std::size_t g = grant[t];
    for (std::size_t k = cand[t].size(); k-- > 0;) {
      if (g < take[t][k].size() && take[t][k][g]) {
        result.chosen.push_back(cand[t][k]);
        g -= static_cast<std::size_t>(
            granules_for(items[cand[t][k]].size, granule));
      }
    }
  }
  finalize_tenant(result, items, rows);
  TAHOE_ASSERT(result.total_size <= capacity,
               "tenant knapsack violated the shared capacity");
  for (std::size_t t = 0; t < T; ++t) {
    TAHOE_ASSERT(result.tenant_sizes[t] <= rows[t].quota,
                 "tenant knapsack violated a tenant row");
  }
  return result;
}

inline TenantKnapsackResult solve_tenant_rows_exact(
    std::span<const TenantItem> items, std::uint64_t capacity,
    std::span<const TenantRow> rows) {
  TAHOE_REQUIRE(items.size() <= 20, "exact tenant solver limited to 20 items");
  TAHOE_REQUIRE(!rows.empty(), "solve_tenant_rows_exact needs tenant rows");
  TenantKnapsackResult best;
  best.tenant_sizes.assign(rows.size(), 0);
  const std::uint32_t n = static_cast<std::uint32_t>(items.size());
  std::vector<std::uint64_t> used(rows.size());
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::uint64_t size = 0;
    double value = 0.0;
    bool feasible = true;
    std::fill(used.begin(), used.end(), 0);
    for (std::uint32_t i = 0; i < n && feasible; ++i) {
      if (!(mask & (1u << i))) continue;
      const TenantItem& it = items[i];
      size += it.size;
      used[it.tenant] += it.size;
      value += it.value * rows[it.tenant].priority;
      feasible = size <= capacity && used[it.tenant] <= rows[it.tenant].quota;
    }
    if (feasible && value > best.total_value) {
      best.chosen.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) best.chosen.push_back(i);
      }
      best.total_value = value;
    }
  }
  finalize_tenant(best, items, rows);
  return best;
}

}  // namespace tahoe::core::reference
