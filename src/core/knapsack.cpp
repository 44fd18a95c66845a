#include "core/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "common/assert.hpp"

namespace tahoe::core {
namespace {

std::uint64_t granules_for(std::uint64_t size, std::uint64_t granule) {
  return (size + granule - 1) / granule;
}

void finalize(KnapsackResult& r, std::span<const KnapsackItem> items) {
  std::sort(r.chosen.begin(), r.chosen.end());
  r.total_value = 0.0;
  r.total_size = 0;
  for (std::size_t i : r.chosen) {
    r.total_value += items[i].value;
    r.total_size += items[i].size;
  }
}

}  // namespace

KnapsackResult solve(std::span<const KnapsackItem> items,
                     std::uint64_t capacity, std::uint32_t grid) {
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

namespace {

void finalize_multi(MultiTierResult& r, std::span<const MultiTierItem> items,
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

}  // namespace

MultiTierResult solve_multi(std::span<const MultiTierItem> items,
                            std::span<const std::uint64_t> capacities,
                            std::size_t state_budget) {
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

  // Per-tier granule: split the state budget evenly across dimensions, but
  // never finer than one byte per granule and never coarser than 1 granule.
  const double per_dim =
      std::pow(static_cast<double>(state_budget), 1.0 / static_cast<double>(T));
  const std::uint64_t grid = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(2048, static_cast<std::uint64_t>(per_dim) - 1));
  std::vector<std::uint64_t> granule(T);
  std::vector<std::size_t> cap_g(T);
  for (std::size_t t = 0; t < T; ++t) {
    granule[t] = std::max<std::uint64_t>(1, capacities[t] / grid);
    cap_g[t] = static_cast<std::size_t>(capacities[t] / granule[t]);
  }

  // need[k * T + t] = granules item k takes on tier t, or 0 where it cannot
  // go (zero size, value <= 0, larger than the whole tier). reach[t] = the
  // most granules the items can ever use on tier t, capped by the tier.
  std::vector<std::size_t> need(items.size() * T, 0);
  std::vector<std::size_t> reach(T, 0);
  std::vector<std::size_t> placeable;  // items with at least one usable tier
  for (std::size_t k = 0; k < items.size(); ++k) {
    const MultiTierItem& it = items[k];
    if (it.size == 0) continue;
    bool usable = false;
    for (std::size_t t = 0; t < T; ++t) {
      const auto n = static_cast<std::size_t>(granules_for(it.size, granule[t]));
      if (it.values[t] <= 0.0 || n > cap_g[t]) continue;
      need[k * T + t] = n;
      reach[t] = std::min(cap_g[t], reach[t] + n);
      usable = true;
    }
    if (usable) placeable.push_back(k);
  }

  // The grid spans only reachable usage, tier 0 fastest-varying. A state
  // of the full (cap_g + 1)^T grid has the same value and choice as the
  // state clamped to what the items so far can use, so reconstructing from
  // this grid's top corner picks what the full grid's top corner would.
  std::vector<std::size_t> stride(T);
  std::size_t num_states = 1;
  for (std::size_t t = 0; t < T; ++t) {
    stride[t] = num_states;
    num_states *= reach[t] + 1;
  }

  // Forward DP over items; dp[state] = best value with per-tier usage
  // within the state's granule budget. Items without a usable tier leave
  // dp as it is; each placeable item owns one row of `choice`, the tier it
  // took at each state (T = skip). Tiers sweep in ascending order with a
  // strict `>`, so every state weighs its candidates in the same order as
  // a per-state scan and ties resolve the same way: to the lower tier, and
  // to skip over any tier.
  std::vector<double> dp(num_states, 0.0), next(num_states);
  std::vector<std::uint8_t> choice(placeable.size() * num_states,
                                   static_cast<std::uint8_t>(T));
  for (std::size_t r = 0; r < placeable.size(); ++r) {
    const std::size_t k = placeable[r];
    const std::size_t* item_need = &need[k * T];
    std::uint8_t* pick = &choice[r * num_states];
    std::copy(dp.begin(), dp.end(), next.begin());
    for (std::size_t t = 0; t < T; ++t) {
      if (item_need[t] == 0) continue;
      // States whose tier-t coordinate is at least the need form one
      // contiguous run per block of the higher tiers.
      const std::size_t offset = item_need[t] * stride[t];
      const std::size_t block = stride[t] * (reach[t] + 1);
      const double value = items[k].values[t];
      for (std::size_t base = 0; base < num_states; base += block) {
        for (std::size_t st = base + offset; st < base + block; ++st) {
          const double with = dp[st - offset] + value;
          if (with > next[st]) {
            next[st] = with;
            pick[st] = static_cast<std::uint8_t>(t);
          }
        }
      }
    }
    dp.swap(next);
  }

  // Reconstruct from the reachable-capacity corner.
  std::size_t st = num_states - 1;
  for (std::size_t r = placeable.size(); r-- > 0;) {
    const std::size_t k = placeable[r];
    const std::uint8_t pick = choice[r * num_states + st];
    if (pick < T) {
      result.assignment[k] = static_cast<int>(pick);
      st -= need[k * T + pick] * stride[pick];
    }
  }
  finalize_multi(result, items, T);
  for (std::size_t t = 0; t < T; ++t) {
    TAHOE_ASSERT(result.tier_sizes[t] <= capacities[t],
                 "multi-tier DP violated a capacity constraint");
  }
  return result;
}

MultiTierResult solve_multi_exact(std::span<const MultiTierItem> items,
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

namespace {

void finalize_tenant(TenantKnapsackResult& r,
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

}  // namespace

TenantKnapsackResult solve_tenant_rows(std::span<const TenantItem> items,
                                       std::uint64_t capacity,
                                       std::span<const TenantRow> rows,
                                       std::uint32_t grid) {
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
  // granules over tenants 0..t. Only the grants where tenant t's curve
  // rises are tried, ascending: best[] and dp[t] never decrease and IEEE
  // addition is monotone, so a grant g inside a flat run of dp[t] gives
  // best[C - g] + dp[t][g] <= best[C - g + 1] + dp[t][g - 1], a candidate
  // the strict `>` has already weighed. Every split and grant is the one
  // trying all g <= min(C, quota) would find.
  std::vector<double> best(cap_g + 1, 0.0), next(cap_g + 1, 0.0);
  std::vector<std::vector<std::uint32_t>> share(
      T, std::vector<std::uint32_t>(cap_g + 1, 0));
  std::vector<std::uint32_t> rises;
  for (std::size_t t = 0; t < T; ++t) {
    rises.clear();
    for (std::size_t g = 1; g <= quota_g[t]; ++g) {
      if (dp[t][g] > dp[t][g - 1]) {
        rises.push_back(static_cast<std::uint32_t>(g));
      }
    }
    for (std::size_t c = 0; c <= cap_g; ++c) {
      double b = best[c];
      std::uint32_t pick = 0;
      for (const std::uint32_t g : rises) {
        if (g > c) break;
        const double with = best[c - g] + dp[t][g];
        if (with > b) {
          b = with;
          pick = g;
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

TenantKnapsackResult solve_tenant_rows_exact(std::span<const TenantItem> items,
                                             std::uint64_t capacity,
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

KnapsackResult solve_exact(std::span<const KnapsackItem> items,
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

}  // namespace tahoe::core
