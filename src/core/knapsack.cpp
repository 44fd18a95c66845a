#include "core/knapsack.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

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

/// bits |= bits << n, the words of `bits` holding bit 0 lowest, for a set
/// whose highest bit is below bit `end` - n.
void shift_or(std::vector<std::uint64_t>& bits, std::size_t n,
              std::size_t end) {
  const std::size_t w = n / 64, b = n % 64;
  for (std::size_t i = std::min(bits.size(), end / 64 + 1); i-- > w;) {
    std::uint64_t x = bits[i - w] << b;
    if (b > 0 && i > w) x |= bits[i - w - 1] >> (64 - b);
    bits[i] |= x;
  }
}

/// One tier's DP states. A dense tier has one state per usage, in
/// granules, 0 .. corner; a sparse one has one per usage that some subset
/// of the items' needs reaches up to the corner, ascending.
struct TierStates {
  bool dense = true;
  std::vector<std::size_t> usage;  ///< sparse: usage[i], what state i uses
  std::vector<std::size_t> index;  ///< sparse: index[u], see state_of(u)

  std::size_t usage_of(std::size_t i) const { return dense ? i : usage[i]; }
  /// The highest state whose usage is at most u.
  std::size_t state_of(std::size_t u) const { return dense ? u : index[u]; }
  /// The state a take of n <= usage_of(i) granules from state i reads.
  std::size_t source(std::size_t i, std::size_t n) const {
    return state_of(usage_of(i) - n);
  }
};

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

  // Every subset's usage of tier t is a multiple of the gcd of its needs,
  // so needs and granule count are divided by it (the count rounding
  // down drops only usages no subset reaches). The corner is what every
  // item can use, capped at the tier.
  std::vector<std::size_t> corner(T, 0);
  for (std::size_t t = 0; t < T; ++t) {
    std::size_t g = 0;
    for (std::size_t r = 0; r < P && g != 1; ++r) {
      g = std::gcd(g, need[placeable[r] * T + t]);
    }
    if (g == 0) continue;  // no item can use tier t
    std::size_t total = 0;
    for (const std::size_t k : placeable) total += need[k * T + t] /= g;
    corner[t] = std::min(cap_g[t] / g, total);
  }

  // Rows run along tier m, the first tier an item can reach: every tier
  // below it holds one state, so a row is contiguous.
  std::size_t m = 0;
  while (corner[m] == 0) ++m;

  // A tier's reachable usages are the subset sums of its needs up to the
  // corner, built as a bitset. A sparse tier's states are those usages
  // alone, and a take of n granules from state i reads the highest state
  // at or below usage(i) - n. That is exact: the usages between two
  // reachable ones admit the same subsets as the lower one, for every
  // state and every take's source alike, so each state weighs the
  // candidates the full grid's state weighs, in the same order, bit for
  // bit. A sparse row tier reads its takes through a list of sources, so
  // it is sparse only where at most half of 0 .. corner is reachable and
  // otherwise keeps one state per usage and contiguous takes; a tier
  // above it is sparse wherever a usage is unreachable, which costs a
  // lookup per row.
  std::vector<TierStates> tiers(T);
  std::vector<std::uint64_t> bits;
  for (std::size_t t = m; t < T; ++t) {
    // Bits above the corner only ever shift further up, so masking them
    // off before a count is enough. The items so far reach at most
    // sum + 1 usages, so no count is taken before that could make the
    // tier dense.
    const std::size_t dense_at = t == m ? (corner[t] + 1) / 2 + 1
                                        : corner[t] + 1;
    const auto count = [&bits, last = corner[t] % 64] {
      bits.back() &= ~std::uint64_t{0} >> (63 - last);
      std::size_t set = 0;
      for (const std::uint64_t w : bits) set += std::popcount(w);
      return set;
    };
    bits.assign(corner[t] / 64 + 1, 0);
    bits[0] = 1;
    std::size_t sum = 0, reached = 1;
    for (std::size_t r = 0; r < P && reached < dense_at; ++r) {
      const std::size_t n = need[placeable[r] * T + t];
      if (n == 0) continue;
      sum += n;
      shift_or(bits, n, sum + 1);
      if (sum + 1 >= dense_at) reached = count();
    }
    TierStates& s = tiers[t];
    s.dense = reached >= dense_at;
    if (s.dense) continue;
    s.usage.reserve(corner[t] + 1);
    s.index.resize(corner[t] + 1);
    for (std::size_t u = 0; u <= corner[t]; ++u) {
      if ((bits[u / 64] >> (u % 64) & 1) != 0) s.usage.push_back(u);
      s.index[u] = s.usage.size() - 1;
    }
  }

  // Row r + 1 of lo/hi bounds, in states, the box placeable item r
  // sweeps; row 0 is the single empty state before any item. hi is the
  // state of what items 0..r can use, capped at the tier, and the corner
  // hi[P] that of what every item can. lo is built from the last item
  // down as the lowest state the next box reads, by a skip or a take. A
  // state above the box has the value and choice of its clamp into the
  // box, and one below it is read neither by a later item nor by the
  // reconstruction, so the boxes give the full grid's answer, ties
  // included.
  std::vector<std::size_t> lo((P + 1) * T, 0), hi((P + 1) * T, 0);
  std::vector<std::size_t> used(T, 0);  // what items 0..r take
  for (std::size_t r = 0; r < P; ++r) {
    const std::size_t* n = &need[placeable[r] * T];
    for (std::size_t t = 0; t < T; ++t) {
      used[t] += n[t];
      hi[(r + 1) * T + t] = tiers[t].state_of(std::min(corner[t], used[t]));
    }
  }
  const std::size_t* top = &hi[P * T];
  std::copy(top, top + T, &lo[P * T]);
  for (std::size_t r = P - 1; r > 0; --r) {
    const std::size_t* n = &need[placeable[r] * T];
    for (std::size_t t = 0; t < T; ++t) {
      // Below usage n no take fits; the state of usage n reads state 0.
      const std::size_t i = lo[(r + 1) * T + t];
      lo[r * T + t] = n[t] == 0                      ? i
                      : tiers[t].usage_of(i) < n[t] ? 0
                                                    : tiers[t].source(i, n[t]);
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

  // One value table over the states 0 .. top, tier 0 fastest-varying.
  // Every state a sweep reads was written by a grow or an earlier sweep,
  // so nothing is zeroed.
  std::vector<std::size_t> stride(T);
  std::size_t states = 1;
  for (std::size_t t = 0; t < T; ++t) {
    stride[t] = states;
    grow_count(states, top[t] + 1);
  }
  const TierStates& row_tier = tiers[m];
  const auto value = std::make_unique_for_overwrite<double[]>(states);
  value[0] = 0.0;  // box 0, the empty state
  // Every choice starts as skip (T).
  std::vector<std::uint8_t> choice(offset[P], static_cast<std::uint8_t>(T));
  std::vector<std::size_t> row_lo(T), row_hi(T), c(T);
  // A sparse row's take sources, one per state.
  std::vector<std::size_t> from(row_tier.dense ? 0 : top[m] + 1);
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
    // fits, the state n[t] granules lower on t plus values[t], is strictly
    // better; tiers are weighed in ascending order and `pick` records the
    // winner. A sparse row's take sources are listed once per item.
    const std::size_t k = placeable[r];
    const std::size_t* n = &need[k * T];
    const std::size_t a = nlo[m], run = nhi[m] - nlo[m] + 1;
    // A take on tier m fits from the state of usage n[m] up.
    const std::size_t first =
        n[m] > 0 ? std::max(a, row_tier.state_of(n[m])) : 0;
    if (n[m] > 0 && !row_tier.dense) {
      for (std::size_t i = first; i <= nhi[m]; ++i) {
        from[i - first] = row_tier.source(i, n[m]);
      }
    }
    std::uint8_t* pick = choice.data() + offset[r + 1];
    rows_down(value.get(), nlo, nhi, stride, m, c, [&](double* row) {
      pick -= run;
      if (n[m] > 0) {
        const double add = items[k].values[m];
        const auto code = static_cast<std::uint8_t>(m);
        const auto skip = static_cast<std::uint8_t>(T);
        std::uint8_t* p = pick + (first - a);
        double* out = row + first;
        const std::size_t len = nhi[m] + 1 - first;
        if (row_tier.dense) {
          const double* in = row + (first - n[m]);
          for (std::size_t i = len; i-- > 0;) {
            const double with = in[i] + add;
            const bool better = with > out[i];
            out[i] = better ? with : out[i];
            p[i] = better ? code : skip;
          }
        } else {
          const std::size_t* src = from.data();
          for (std::size_t i = len; i-- > 0;) {
            const double with = row[src[i]] + add;
            const bool better = with > out[i];
            out[i] = better ? with : out[i];
            p[i] = better ? code : skip;
          }
        }
      }
      for (std::size_t t = m + 1; t < T; ++t) {
        if (n[t] == 0 || tiers[t].usage_of(c[t]) < n[t]) continue;
        const double add = items[k].values[t];
        const auto code = static_cast<std::uint8_t>(t);
        std::uint8_t* p = pick;
        double* out = row + a;
        const double* in =
            out - (c[t] - tiers[t].source(c[t], n[t])) * stride[t];
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
  // clamp into its box; a take moves the walk to the state it read.
  std::vector<std::size_t> at(top, top + T);
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
      at[pick] = tiers[pick].source(at[pick], need[k * T + pick]);
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
  const std::size_t T = rows.size();

  // Candidates: the items that fit their row, on the shared granule so the
  // cross-tenant split composes without rounding drift. Quotas round
  // *down* to whole granules: a plan can only under-use a row.
  std::vector<std::size_t> quota_g(T);
  for (std::size_t t = 0; t < T; ++t) {
    quota_g[t] =
        static_cast<std::size_t>(std::min(rows[t].quota, capacity) / granule);
  }
  std::vector<std::vector<std::size_t>> cand(T);
  std::vector<std::size_t> need(items.size(), 0);
  std::size_t unit = 0;  // gcd of the candidates' needs
  for (std::size_t i = 0; i < items.size(); ++i) {
    const TenantItem& it = items[i];
    if (!(it.value > 0.0) || it.size == 0) continue;
    need[i] = static_cast<std::size_t>(granules_for(it.size, granule));
    if (need[i] > quota_g[it.tenant]) continue;
    cand[it.tenant].push_back(i);
    unit = std::gcd(unit, need[i]);
  }
  if (unit == 0) {  // nothing fits
    finalize_tenant(result, items, rows);
    return result;
  }

  // Every subset's need is a multiple of `unit`, so the needs, the quota
  // rows and the capacity are divided by it, rounding down. That is
  // exact: a grant or capacity between two multiples admits exactly the
  // subsets the multiple below it admits, so each curve and the split are
  // constant between multiples, rise only at multiples, and the divided
  // DPs compute the values, rises, splits and picks at the multiples in
  // the same order, bit for bit.
  const auto cap_g = static_cast<std::size_t>(capacity / granule) / unit;
  for (std::size_t& q : quota_g) q /= unit;
  for (std::size_t& n : need) n /= unit;

  // Stage 1: per-tenant 0/1 DP within its row.
  std::vector<std::vector<double>> dp(T);
  std::vector<std::vector<std::vector<bool>>> take(T);
  for (std::size_t t = 0; t < T; ++t) {
    dp[t].assign(quota_g[t] + 1, 0.0);
    take[t].assign(cand[t].size(),
                   std::vector<bool>(quota_g[t] + 1, false));
    for (std::size_t k = 0; k < cand[t].size(); ++k) {
      const TenantItem& it = items[cand[t][k]];
      const std::size_t n = need[cand[t][k]];
      const double weighted = it.value * rows[t].priority;
      for (std::size_t c = quota_g[t] + 1; c-- > n;) {
        const double with = dp[t][c - n] + weighted;
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
      if (take[t][k][g]) {
        result.chosen.push_back(cand[t][k]);
        g -= need[cand[t][k]];
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
