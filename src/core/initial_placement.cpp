#include "core/initial_placement.hpp"

#include "core/knapsack.hpp"

namespace tahoe::core {

std::vector<std::pair<UnitKey, memsim::TierId>> choose_initial_tiers(
    const std::vector<ObjectInfo>& objects, const memsim::Machine& machine) {
  std::vector<UnitKey> units;
  std::vector<KnapsackItem> items;
  for (const ObjectInfo& o : objects) {
    if (o.static_ref_estimate <= 0.0) continue;  // statically unknown
    const double total = static_cast<double>(o.total_bytes());
    for (std::size_t c = 0; c < o.chunk_bytes.size(); ++c) {
      const std::uint64_t bytes = o.chunk_bytes[c];
      if (bytes == 0) continue;
      units.push_back(UnitKey{o.id, c});
      items.push_back(KnapsackItem{
          bytes,
          o.static_ref_estimate * static_cast<double>(bytes) / total});
    }
  }

  std::vector<std::pair<UnitKey, memsim::TierId>> out;
  std::vector<bool> taken(items.size(), false);
  for (memsim::TierId t = 0; t < machine.capacity_tier(); ++t) {
    std::vector<std::size_t> remaining;
    std::vector<KnapsackItem> pool;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!taken[i]) {
        remaining.push_back(i);
        pool.push_back(items[i]);
      }
    }
    if (pool.empty()) break;
    const KnapsackResult sol = solve(pool, machine.tier(t).capacity);
    for (std::size_t idx : sol.chosen) {
      taken[remaining[idx]] = true;
      out.emplace_back(units[remaining[idx]], t);
    }
  }
  return out;
}

}  // namespace tahoe::core
