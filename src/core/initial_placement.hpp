// Initial data placement from static (compiler-analysis style) reference
// estimates.
//
// By default every object starts on the capacity tier (NVM). With the
// optimization enabled, the objects with the largest estimated reference
// counts are placed on the faster tiers at allocation time (a knapsack per
// constrained tier with the static estimates as values), which costs
// nothing at runtime and reduces the first-enforcement migration volume.
// Objects whose reference count cannot be estimated statically
// (estimate == 0) stay on the capacity tier, as in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "core/policy.hpp"
#include "hms/placement.hpp"

namespace tahoe::core {

/// Unit-level choice: waterfall the static estimates over every
/// constrained tier, fastest first — the tier-0 knapsack gets first pick,
/// remaining units cascade to the next tier, and whatever is left stays on
/// the capacity tier. Chunked objects distribute the object estimate over
/// chunks proportionally to chunk size. Returns (unit, tier) pairs for the
/// constrained tiers only; on a two-tier machine that is the DRAM set.
std::vector<std::pair<UnitKey, memsim::TierId>> choose_initial_tiers(
    const std::vector<ObjectInfo>& objects, const memsim::Machine& machine);

}  // namespace tahoe::core
