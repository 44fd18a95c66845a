#include "core/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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

/// The DP states using lo[t] .. lo[t] + ext[t] - 1 granules of every tier
/// t, flattened with tier 0 fastest-varying.
struct StateBox {
  std::vector<std::size_t> lo, ext, stride;
  std::size_t states = 0;

  void assign(const std::size_t* low, const std::size_t* high,
              std::size_t tiers) {
    lo.assign(low, low + tiers);
    ext.resize(tiers);
    stride.resize(tiers);
    states = 1;
    for (std::size_t t = 0; t < tiers; ++t) {
      ext[t] = high[t] - low[t] + 1;
      stride[t] = states;
      TAHOE_REQUIRE(!__builtin_mul_overflow(states, ext[t], &states),
                    "multi-tier DP state count overflows");
    }
  }
};

/// Copies `src`, laid out over `from`, into `dst` over `to`: the same lower
/// corner, at least as high on every tier, and a state above `from` takes
/// the value of its clamp into `from`. Below the first tier m that grows
/// the two boxes agree, so a row of `to` (tiers 0..m) is one contiguous
/// copy followed by repeats of its last tier-m slab. `coord` is a reusable
/// buffer of one entry per tier.
void pad_box(const StateBox& from, const double* src, const StateBox& to,
             double* dst, std::vector<std::size_t>& coord) {
  const std::size_t T = to.ext.size();
  std::size_t m = 0;
  while (to.ext[m] == from.ext[m]) ++m;
  const std::size_t slab = from.stride[m];
  const std::size_t kept = slab * from.ext[m];
  const std::size_t row = slab * to.ext[m];
  std::fill(coord.begin(), coord.end(), 0);
  std::size_t s = 0;  // the row's clamp into `from`
  for (std::size_t d = 0; d < to.states; d += row) {
    std::copy_n(src + s, kept, dst + d);
    const double* last = src + s + kept - slab;
    if (slab == 1) {
      std::fill(dst + d + kept, dst + d + row, *last);
    } else {
      for (std::size_t j = kept; j < row; j += slab) {
        std::copy_n(last, slab, dst + d + j);
      }
    }
    for (std::size_t t = m + 1; t < T; ++t) {
      if (++coord[t] < to.ext[t]) {
        if (coord[t] < from.ext[t]) s += from.stride[t];
        break;
      }
      s -= (from.ext[t] - 1) * from.stride[t];
      coord[t] = 0;
    }
  }
}

/// One item's DP step over box `to`. Each state keeps prev (skip) unless
/// taking a tier t the item fits, prev `need[t]` granules lower on t plus
/// values[t], is strictly better; tiers are weighed in ascending order and
/// `pick` records the winner. `prev` is laid out over `from`, which ends
/// where `to` ends and starts low enough for every take. Below the item's
/// first usable tier m it needs nothing, so `from` and `to` agree there and
/// a row of `to` (tiers 0..m) is one contiguous run in both. `coord` is a
/// reusable buffer of one entry per tier.
void sweep_box(const StateBox& from, const double* prev, const StateBox& to,
               double* next, std::uint8_t* pick, const std::size_t* need,
               const std::vector<double>& values,
               std::vector<std::size_t>& coord) {
  const std::size_t T = to.ext.size();
  std::size_t m = 0;
  while (need[m] == 0) ++m;
  const std::size_t run = to.stride[m] * to.ext[m];
  // The first state of a row where the item fits on tier m.
  const std::size_t first =
      need[m] > to.lo[m] ? (need[m] - to.lo[m]) * to.stride[m] : 0;
  const std::size_t back = need[m] * from.stride[m];
  std::size_t src = 0;  // the row's first state in `from`
  for (std::size_t t = m; t < T; ++t) {
    src += (to.lo[t] - from.lo[t]) * from.stride[t];
  }
  std::fill(coord.begin(), coord.end(), 0);
  for (std::size_t dst = 0; dst < to.states; dst += run) {
    const double* in = prev + src;
    double* out = next + dst;
    std::uint8_t* p = pick + dst;
    std::copy_n(in, first, out);
    for (std::size_t i = first; i < run; ++i) {
      const double with = in[i - back] + values[m];
      const bool better = with > in[i];
      out[i] = better ? with : in[i];
      p[i] = static_cast<std::uint8_t>(better ? m : T);
    }
    for (std::size_t t = m + 1; t < T; ++t) {
      if (need[t] == 0 || to.lo[t] + coord[t] < need[t]) continue;
      const double* take = in - need[t] * from.stride[t];
      for (std::size_t i = 0; i < run; ++i) {
        const double with = take[i] + values[t];
        const bool better = with > out[i];
        out[i] = better ? with : out[i];
        p[i] = better ? static_cast<std::uint8_t>(t) : p[i];
      }
    }
    for (std::size_t t = m + 1; t < T; ++t) {
      src += from.stride[t];
      if (++coord[t] < to.ext[t]) break;
      src -= to.ext[t] * from.stride[t];
      coord[t] = 0;
    }
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

  // Each item's choices fill its own box; offset[r] places item r's in one
  // table. The sweep reads the previous item's values padded up to the new
  // box's top, over `from`, and writes the new box, `to`.
  StateBox from, to;
  std::vector<std::size_t> offset(P + 1, 0);
  std::size_t max_box = 1, max_padded = 1;
  for (std::size_t r = 0; r < P; ++r) {
    to.assign(&lo[(r + 1) * T], &hi[(r + 1) * T], T);
    from.assign(&lo[r * T], &hi[(r + 1) * T], T);
    TAHOE_REQUIRE(!__builtin_add_overflow(offset[r], to.states,
                                          &offset[r + 1]),
                  "multi-tier DP state count overflows");
    max_box = std::max(max_box, to.states);
    max_padded = std::max(max_padded, from.states);
  }

  // Forward DP over the placeable items; items without a usable tier leave
  // every state as it is. Every choice starts as skip (T).
  std::vector<double> cur(max_box, 0.0), next(max_box), padded(max_padded);
  std::vector<std::uint8_t> choice(offset[P], static_cast<std::uint8_t>(T));
  std::vector<std::size_t> coord(T);
  StateBox wide;
  from.assign(&lo[0], &hi[0], T);
  for (std::size_t r = 0; r < P; ++r) {
    const std::size_t k = placeable[r];
    const double* prev = cur.data();
    wide.assign(from.lo.data(), &hi[(r + 1) * T], T);
    if (wide.states != from.states) {
      pad_box(from, cur.data(), wide, padded.data(), coord);
      std::swap(from, wide);
      prev = padded.data();
    }
    to.assign(&lo[(r + 1) * T], &hi[(r + 1) * T], T);
    sweep_box(from, prev, to, next.data(), &choice[offset[r]], &need[k * T],
              items[k].values, coord);
    cur.swap(next);
    std::swap(from, to);
  }

  // Reconstruct from the corner, reading each item's choice at the walk's
  // clamp into its box.
  std::vector<std::size_t> at(corner, corner + T);
  for (std::size_t r = P; r-- > 0;) {
    const std::size_t k = placeable[r];
    to.assign(&lo[(r + 1) * T], &hi[(r + 1) * T], T);
    std::size_t index = offset[r];
    for (std::size_t t = 0; t < T; ++t) {
      const std::size_t clamp = std::min(at[t], hi[(r + 1) * T + t]);
      index += (clamp - to.lo[t]) * to.stride[t];
    }
    const std::uint8_t pick = choice[index];
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

}  // namespace tahoe::core
