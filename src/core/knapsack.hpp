// Knapsack solvers for the data-placement decision.
//
// Items are data units (object chunks) with size = bytes and value = the
// Eq. (7) weight w = BFT - COST - extra_COST. The planner places units with
// the multi-choice solver (solve_multi), one dimension per constrained
// tier; a two-tier machine has one, where it is the 0/1 knapsack. The 0/1
// entry point solve(), the one-tier solve_multi on its 2048-granule grid,
// serves the single-capacity users (initial placement, the quota-free
// tenant baseline). The oracles the tests check these solvers against,
// the dense DPs they replaced and exhaustive searches, live under tests/
// (reference_knapsack.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tahoe::core {

struct KnapsackItem {
  std::uint64_t size = 0;
  double value = 0.0;
};

struct KnapsackResult {
  std::vector<std::size_t> chosen;  ///< indices into the item span, ascending
  double total_value = 0.0;
  std::uint64_t total_size = 0;
};

/// solve_multi over one constrained tier. Sizes are rounded *up* to
/// capacity/2048 granules, so the capacity constraint is never violated
/// (solutions can only be slightly conservative). Items with value <= 0 or
/// size > capacity are never chosen.
KnapsackResult solve(std::span<const KnapsackItem> items,
                     std::uint64_t capacity);

// ---- Multi-choice knapsack (MCKP) for N-tier placement. ----
//
// Each item is one data unit; it is assigned to exactly one of T
// *constrained* tiers (each with its own capacity) or to the unconstrained
// capacity tier (the implicit "skip" choice, value 0). values[t] is the
// Eq. (7) weight of placing the unit on constrained tier t instead of
// leaving it on the capacity tier. With T = 1 this is the 0/1 knapsack
// above, on a grid of 2048 granules: it takes exactly the items of the
// textbook 0/1 DP at that grid, with a bit-identical total value.

struct MultiTierItem {
  std::uint64_t size = 0;
  std::vector<double> values;  ///< one weight per constrained tier
};

struct MultiTierResult {
  /// assignment[i] = constrained-tier index in [0, T), or -1 for the
  /// capacity tier. Same length as the item span.
  std::vector<int> assignment;
  double total_value = 0.0;
  std::vector<std::uint64_t> tier_sizes;  ///< bytes per constrained tier
};

/// Scaled multi-dimensional DP. Sizes are rounded *up* to per-tier
/// granules, so no tier capacity is ever violated. `state_budget` (total
/// DP states allowed) sets the granule: each tier's capacity is split into
/// about state_budget^(1/T) granules. Every tier keeps at least two
/// states, so a budget below 2^T cannot bound the grid and throws
/// ContractError. The DP keeps states only for usages the items can
/// reach. Each tier's needs and granule count are divided by the needs'
/// gcd, and its reachable usages up to the corner, what all the items can
/// use capped at the tier, are the subset sums of the needs. A sparse
/// tier keeps one state per reachable usage, and a take of n granules
/// from a state reads the highest state at or below its usage minus n.
/// The DP runs along the first tier an item can use, which is sparse
/// where at most half of its usages are reachable and otherwise keeps
/// one state per usage and contiguous takes; a tier above it is sparse
/// wherever a usage is unreachable. This is exact: an unreachable usage
/// admits exactly the subsets the reachable one below it admits, for
/// every state and every take's source.
/// Each usable item sweeps only a box of states, bounded per tier from
/// both sides: above by the state of what it and the items before it can
/// use, capped at the tier; below by the lowest state the next item's box
/// reads. A state above the box has the value and choice of its clamp
/// into the box, and no later item and no reconstruction reads one below
/// it, so the result is the one the full grid would give, ties included.
/// One value table over the states up to the corner serves every item: the
/// item grows it to its box's top, a new state copying its clamp, then
/// sweeps the box in place from the highest state down. Choices with
/// value <= 0 are never taken.
MultiTierResult solve_multi(std::span<const MultiTierItem> items,
                            std::span<const std::uint64_t> capacities,
                            std::size_t state_budget = 1 << 18);

// ---- Multi-tenant knapsack with per-tenant capacity rows. ----
//
// The serving scenario: one constrained fast tier shared by N concurrent
// applications (tenants). Each tenant owns a subset of the items and is
// bounded by its own capacity row (quota) *in addition to* the shared
// tier capacity, and its item values are scaled by the tenant's priority
// before arbitration. The solver decomposes into one per-tenant 0/1 DP
// (within the quota row) plus a DP across tenants that splits the shared
// capacity — exact up to the capacity-grid quantization. The split tries
// only the grants where a tenant's value curve rises, in ascending order.
// That gives the same split as trying every grant, bit for bit: the
// running split and every curve never decrease and IEEE addition is
// monotone, so a grant inside a flat run of the curve scores no more than
// the run's first grant, and the strict `>` keeps that earlier one.

struct TenantItem {
  std::uint64_t size = 0;
  double value = 0.0;        ///< un-weighted Eq. (7)-style value
  std::uint32_t tenant = 0;  ///< index into the quota-row span
};

struct TenantRow {
  std::uint64_t quota = 0;   ///< hard cap on this tenant's bytes on the tier
  double priority = 1.0;     ///< value multiplier during arbitration
};

struct TenantKnapsackResult {
  std::vector<std::size_t> chosen;  ///< indices into the item span, ascending
  double total_value = 0.0;         ///< priority-weighted objective
  std::uint64_t total_size = 0;
  std::vector<std::uint64_t> tenant_sizes;  ///< bytes per tenant row
};

/// Scaled DP. Sizes are rounded *up* to capacity/grid granules and quotas
/// rounded *down* to whole granules, so neither the shared capacity nor
/// any tenant row is ever violated. Items with value <= 0, items larger
/// than their tenant's row, and items of tenants with a zero quota are
/// never chosen.
TenantKnapsackResult solve_tenant_rows(std::span<const TenantItem> items,
                                       std::uint64_t capacity,
                                       std::span<const TenantRow> rows,
                                       std::uint32_t grid = 2048);

}  // namespace tahoe::core
