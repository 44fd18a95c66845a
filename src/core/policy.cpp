#include "core/policy.hpp"

#include <algorithm>
#include <set>

#include "common/assert.hpp"

namespace tahoe::core {

std::uint64_t PlanInputs::unit_bytes(hms::ObjectId id,
                                     std::size_t chunk) const {
  const ObjectInfo& info = object(id);
  TAHOE_REQUIRE(chunk < info.chunk_bytes.size(), "chunk out of range");
  return info.chunk_bytes[chunk];
}

const ObjectInfo& PlanInputs::object(hms::ObjectId id) const {
  for (const ObjectInfo& o : objects) {
    if (o.id == id) return o;
  }
  TAHOE_UNREACHABLE("object not in plan inputs");
}

bool PlanInputs::pinned(hms::ObjectId id) const {
  return std::find(pinned_nvm.begin(), pinned_nvm.end(), id) !=
         pinned_nvm.end();
}

std::vector<task::ScheduledCopy> cyclic_preamble(
    const PlanInputs& in, const Residency& start,
    const std::vector<task::ScheduledCopy>& body) {
  TAHOE_REQUIRE(in.machine != nullptr, "cyclic preamble needs the machine");
  using Unit = std::pair<hms::ObjectId, std::size_t>;
  const memsim::TierId cap_tier = in.machine->capacity_tier();
  std::set<Unit> possible;
  for (const auto& [unit, dev] : in.current.entries()) {
    if (dev != cap_tier) possible.insert(unit);
  }
  for (const task::ScheduledCopy& c : body) {
    if (c.dst != cap_tier) possible.insert(Unit{c.object, c.chunk});
  }

  // Fills trigger at iteration start but are only *needed* when the unit
  // is first referenced — that window is what lets the helper thread hide
  // the one-time enforcement copies behind the leading groups.
  const auto first_reference = [&in](const Unit& u) -> task::GroupId {
    if (in.graph == nullptr) return 0;
    const auto refs = in.graph->groups_referencing(u.first, u.second);
    return refs.empty() ? 0 : refs.front();
  };
  std::vector<task::ScheduledCopy> preamble;
  for (const Unit& u : possible) {
    if (!start.contains(u)) {
      preamble.push_back(task::ScheduledCopy{
          u.first, u.second, in.unit_bytes(u.first, u.second), cap_tier, 0,
          0});
    }
  }
  for (const auto& [u, t] : start) {
    // A start unit sitting on the wrong constrained tier must vacate it
    // before any same-trigger fill can count on that space: demote it
    // with the evictions (same-trigger copies run in schedule order), then
    // fill it onto its tier like everything else.
    const auto cur = in.current.find(u);
    if (cur && *cur != cap_tier && *cur != t) {
      preamble.push_back(task::ScheduledCopy{
          u.first, u.second, in.unit_bytes(u.first, u.second), cap_tier, 0,
          0});
    }
  }
  for (const auto& [u, t] : start) {
    preamble.push_back(task::ScheduledCopy{
        u.first, u.second, in.unit_bytes(u.first, u.second), t, 0,
        first_reference(u)});
  }
  return preamble;
}

}  // namespace tahoe::core
