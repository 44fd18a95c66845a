#include "core/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/assert.hpp"

namespace tahoe::core {
namespace {

std::uint64_t granules_for(std::uint64_t size, std::uint64_t granule) {
  return (size + granule - 1) / granule;
}

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

/// Multiplies `states` by `ext`, rejecting a count that overflows.
void grow_count(std::size_t& states, std::size_t ext) {
  TAHOE_REQUIRE(!__builtin_mul_overflow(states, ext, &states),
                "multi-tier DP state count overflows");
}

/// Calls f(row) for each row of the box `lo` .. `hi` of `table`, from the
/// highest row down: one row per state of the tiers above m, `row` pointing
/// at its state 0 on tier m. `c` holds the row's coordinates while f runs.
template <typename F>
void rows_down(double* table, const std::size_t* lo, const std::size_t* hi,
               const std::vector<std::size_t>& stride, std::size_t m,
               std::vector<std::size_t>& c, F&& f) {
  const std::size_t T = stride.size();
  std::size_t at = 0;
  for (std::size_t t = m + 1; t < T; ++t) {
    c[t] = hi[t];
    at += hi[t] * stride[t];
  }
  for (;;) {
    f(table + at);
    std::size_t t = m + 1;
    for (; t < T && c[t] == lo[t]; ++t) {
      c[t] = hi[t];
      at += (hi[t] - lo[t]) * stride[t];
    }
    if (t == T) return;
    --c[t];
    at -= stride[t];
  }
}

}  // namespace

MultiTierResult solve_multi(std::span<const MultiTierItem> items,
                            std::span<const std::uint64_t> capacities,
                            std::size_t state_budget) {
  const std::size_t T = capacities.size();
  TAHOE_REQUIRE(T >= 1, "solve_multi needs at least one constrained tier");
  TAHOE_REQUIRE(state_budget >= 4, "state budget too small");
  // Every tier keeps at least two states, no granule and one.
  TAHOE_REQUIRE(T < std::numeric_limits<std::size_t>::digits &&
                    (std::size_t{1} << T) <= state_budget,
                "a state budget below 2^T cannot bound the multi-tier grid");
  for (const MultiTierItem& it : items) {
    TAHOE_REQUIRE(it.values.size() == T,
                  "item values must match the constrained-tier count");
  }
  MultiTierResult result;
  result.assignment.assign(items.size(), -1);

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
  // go (zero size, value <= 0, larger than the whole tier).
  std::vector<std::size_t> need(items.size() * T, 0);
  std::vector<std::size_t> placeable;  // items with at least one usable tier
  for (std::size_t k = 0; k < items.size(); ++k) {
    const MultiTierItem& it = items[k];
    if (it.size == 0) continue;
    bool usable = false;
    for (std::size_t t = 0; t < T; ++t) {
      const auto n = static_cast<std::size_t>(granules_for(it.size, granule[t]));
      if (it.values[t] <= 0.0 || n > cap_g[t]) continue;
      need[k * T + t] = n;
      usable = true;
    }
    if (usable) placeable.push_back(k);
  }
  const std::size_t P = placeable.size();
  if (P == 0) {
    finalize_multi(result, items, T);
    return result;
  }

  // Row r + 1 of lo/hi bounds the box placeable item r sweeps; row 0 is
  // the single empty state before any item. hi is what items 0..r can use,
  // capped at the tier, and the corner hi[P] is what every item can. lo is
  // the corner minus what the items after r can still take away. A state
  // of the full (cap_g + 1)^T grid above the box has the value and choice
  // of its clamp into the box, and one below it is read neither by a later
  // item nor by the reconstruction, so the boxes give the full grid's
  // answer, ties included.
  std::vector<std::size_t> lo((P + 1) * T, 0), hi((P + 1) * T, 0);
  for (std::size_t r = 0; r < P; ++r) {
    const std::size_t* n = &need[placeable[r] * T];
    for (std::size_t t = 0; t < T; ++t) {
      hi[(r + 1) * T + t] = std::min(cap_g[t], hi[r * T + t] + n[t]);
    }
  }
  const std::size_t* corner = &hi[P * T];
  std::vector<std::size_t> rest(T, 0);  // what the items after row r take
  for (std::size_t r = P; r > 0; --r) {
    const std::size_t* n = &need[placeable[r - 1] * T];
    for (std::size_t t = 0; t < T; ++t) {
      lo[r * T + t] = corner[t] - std::min(corner[t], rest[t]);
      rest[t] += n[t];
    }
  }

  // Each item's choices fill its own box, tier 0 fastest-varying;
  // offset[r] places item r's in one table.
  std::vector<std::size_t> offset(P + 1, 0);
  for (std::size_t r = 0; r < P; ++r) {
    std::size_t states = 1;
    for (std::size_t t = 0; t < T; ++t) {
      grow_count(states, hi[(r + 1) * T + t] - lo[(r + 1) * T + t] + 1);
    }
    TAHOE_REQUIRE(!__builtin_add_overflow(offset[r], states, &offset[r + 1]),
                  "multi-tier DP state count overflows");
  }

  // One value table over the states 0 .. corner, tier 0 fastest-varying.
  // Rows run along tier m, the first tier an item can reach: every tier
  // below it holds one state, so a row is contiguous. Every state a sweep
  // reads was written by a grow or an earlier sweep, so nothing is zeroed.
  std::vector<std::size_t> stride(T);
  std::size_t states = 1;
  for (std::size_t t = 0; t < T; ++t) {
    stride[t] = states;
    grow_count(states, corner[t] + 1);
  }
  std::size_t m = 0;
  while (corner[m] == 0) ++m;
  const auto value = std::make_unique_for_overwrite<double[]>(states);
  value[0] = 0.0;  // box 0, the empty state
  // Every choice starts as skip (T).
  std::vector<std::uint8_t> choice(offset[P], static_cast<std::uint8_t>(T));
  std::vector<std::size_t> row_lo(T), row_hi(T), c(T);
  for (std::size_t r = 0; r < P; ++r) {
    const std::size_t* blo = &lo[r * T];  // box r, the values so far
    const std::size_t* bhi = &hi[r * T];
    const std::size_t* nlo = &lo[(r + 1) * T];  // box r + 1, this item's
    const std::size_t* nhi = &hi[(r + 1) * T];
    // Grow box r up to nhi one tier at a time: a new state takes the value
    // of its clamp into box r.
    for (std::size_t t = m; t < T; ++t) {
      if (nhi[t] == bhi[t]) continue;
      for (std::size_t u = m + 1; u < T; ++u) {
        row_lo[u] = u == t ? bhi[u] : blo[u];
        row_hi[u] = u < t ? nhi[u] : bhi[u];
      }
      const std::size_t a = blo[m], b = bhi[m], e = nhi[m] + 1;
      const std::size_t step = stride[t], copies = nhi[t] - bhi[t];
      rows_down(value.get(), row_lo.data(), row_hi.data(), stride, m, c,
                [&](double* row) {
                  if (t == m) {
                    std::fill(row + b + 1, row + e, row[b]);
                    return;
                  }
                  for (std::size_t j = 1; j <= copies; ++j) {
                    std::copy(row + a, row + e, row + j * step + a);
                  }
                });
    }
    // Sweep box r + 1 in place, from its highest row down and each row from
    // its highest state down, so every take reads a state this item has
    // not written yet. A state keeps skip unless taking a tier t the item
    // fits, n[t] granules lower on t plus values[t], is strictly better;
    // tiers are weighed in ascending order and `pick` records the winner.
    const std::size_t k = placeable[r];
    const std::size_t* n = &need[k * T];
    const std::size_t a = nlo[m], run = nhi[m] - nlo[m] + 1;
    std::uint8_t* pick = choice.data() + offset[r + 1];
    rows_down(value.get(), nlo, nhi, stride, m, c, [&](double* row) {
      pick -= run;
      if (n[m] > 0) {
        const std::size_t first = std::max(a, n[m]);
        const double add = items[k].values[m];
        const auto code = static_cast<std::uint8_t>(m);
        const auto skip = static_cast<std::uint8_t>(T);
        std::uint8_t* p = pick + (first - a);
        double* out = row + first;
        const double* in = row + (first - n[m]);
        for (std::size_t i = nhi[m] + 1 - first; i-- > 0;) {
          const double with = in[i] + add;
          const bool better = with > out[i];
          out[i] = better ? with : out[i];
          p[i] = better ? code : skip;
        }
      }
      for (std::size_t t = m + 1; t < T; ++t) {
        if (n[t] == 0 || c[t] < n[t]) continue;
        const double add = items[k].values[t];
        const auto code = static_cast<std::uint8_t>(t);
        std::uint8_t* p = pick;
        double* out = row + a;
        const double* in = out - n[t] * stride[t];
        for (std::size_t i = 0; i < run; ++i) {
          const double with = in[i] + add;
          const bool better = with > out[i];
          out[i] = better ? with : out[i];
          p[i] = better ? code : p[i];
        }
      }
    });
  }

  // Reconstruct from the corner, reading each item's choice at the walk's
  // clamp into its box.
  std::vector<std::size_t> at(corner, corner + T);
  for (std::size_t r = P; r-- > 0;) {
    const std::size_t k = placeable[r];
    const std::size_t* blo = &lo[(r + 1) * T];
    const std::size_t* bhi = &hi[(r + 1) * T];
    std::size_t index = 0;
    for (std::size_t t = T; t-- > 0;) {
      index = index * (bhi[t] - blo[t] + 1) + std::min(at[t], bhi[t]) - blo[t];
    }
    const std::uint8_t pick = choice[offset[r] + index];
    if (pick < T) {
      result.assignment[k] = static_cast<int>(pick);
      at[pick] -= need[k * T + pick];
    }
  }
  finalize_multi(result, items, T);
  for (std::size_t t = 0; t < T; ++t) {
    TAHOE_ASSERT(result.tier_sizes[t] <= capacities[t],
                 "multi-tier DP violated a capacity constraint");
  }
  return result;
}

KnapsackResult solve(std::span<const KnapsackItem> items,
                     std::uint64_t capacity) {
  std::vector<MultiTierItem> one_tier;
  one_tier.reserve(items.size());
  for (const KnapsackItem& it : items) {
    one_tier.push_back(MultiTierItem{it.size, {it.value}});
  }
  const std::uint64_t caps[]{capacity};
  const MultiTierResult multi = solve_multi(one_tier, caps);
  KnapsackResult result;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (multi.assignment[i] == 0) result.chosen.push_back(i);
  }
  result.total_value = multi.total_value;
  result.total_size = multi.tier_sizes[0];
  return result;
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
  // trying all g <= min(C, quota) would find. A grant reads only splits of
  // fewer granules, so best[] is updated in place from the top down.
  std::vector<double> best(cap_g + 1, 0.0);
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
    for (std::size_t c = cap_g + 1; c-- > 0;) {
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
      best[c] = b;
      share[t][c] = pick;
    }
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

}  // namespace tahoe::core
