#include "baselines/reactive.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "common/assert.hpp"
#include "hms/space_manager.hpp"

namespace tahoe::baselines {
namespace {

using Unit = hms::SpaceManager::Unit;

struct WalkResult {
  std::vector<task::ScheduledCopy> schedule;
  core::Residency end_residency;  ///< every unit on the fastest tier
};

/// One iteration's reactive residency walk: fill on first touch of a
/// group, evict LRU. `last_used` persists across walks (recency carries
/// over the iteration boundary).
WalkResult walk(const core::PlanInputs& in, const core::Residency& start,
                std::map<Unit, task::GroupId>& last_used) {
  const task::TaskGraph& graph = *in.graph;
  const memsim::TierId fast = in.machine->fastest_tier();
  const std::uint64_t capacity = in.machine->tier(fast).capacity;

  WalkResult out;
  hms::SpaceManager space(capacity);
  for (const auto& [u, tier] : start) {
    (void)tier;
    (void)space.add(u.first, u.second, in.unit_bytes(u.first, u.second));
  }

  for (task::GroupId g = 0; g < graph.num_groups(); ++g) {
    std::set<Unit> referenced;
    const task::Group& grp = graph.group(g);
    for (task::TaskId id = grp.first_task; id < grp.last_task; ++id) {
      for (const task::DataAccess& a : graph.task(id).accesses) {
        const std::size_t chunk = (a.chunk == task::kAllChunks) ? 0 : a.chunk;
        referenced.insert(Unit{a.object, chunk});
      }
    }
    for (const Unit& u : referenced) {
      last_used[u] = g;
      if (in.pinned(u.first)) continue;  // degraded to NVM; never fill
      const std::uint64_t bytes = in.unit_bytes(u.first, u.second);
      if (space.resident(u.first, u.second) || bytes > capacity) continue;
      // Evict least-recently-used residents until the unit fits.
      while (!space.can_fit(bytes)) {
        Unit victim{hms::kInvalidObject, 0};
        bool found = false;
        task::GroupId oldest = 0;
        for (const auto& [ru, rbytes] : space.contents()) {
          (void)rbytes;
          if (referenced.contains(ru)) continue;  // needed by this group
          const task::GroupId used =
              last_used.contains(ru) ? last_used.at(ru) : 0;
          if (!found || used < oldest || (used == oldest && ru < victim)) {
            victim = ru;
            oldest = used;
            found = true;
          }
        }
        if (!found) break;  // everything resident is needed right now
        space.remove(victim.first, victim.second);
        out.schedule.push_back(task::ScheduledCopy{
            victim.first, victim.second,
            in.unit_bytes(victim.first, victim.second),
            in.machine->capacity_tier(), g, g});
      }
      if (!space.can_fit(bytes)) continue;
      (void)space.add(u.first, u.second, bytes);
      // Reactive: triggered exactly when needed — fully exposed.
      out.schedule.push_back(
          task::ScheduledCopy{u.first, u.second, bytes, fast, g, g});
    }
  }
  for (const auto& [unit, bytes] : space.contents()) {
    (void)bytes;
    out.end_residency[unit] = fast;
  }
  return out;
}

}  // namespace

core::PlanDecision ReactiveLruPolicy::decide(const core::PlanInputs& in) {
  const auto t_begin = std::chrono::steady_clock::now();
  TAHOE_REQUIRE(in.graph != nullptr && in.machine != nullptr,
                "reactive policy needs graph and machine");

  core::Residency current;
  for (const auto& [unit, dev] : in.current.entries()) {
    if (dev == in.machine->fastest_tier()) current[unit] = dev;
  }

  // Walk 1 settles recency; walk 2 from its end state produces the cyclic
  // body, and the preamble pins the iteration-start residency.
  std::map<Unit, task::GroupId> last_used;
  const WalkResult first = walk(in, current, last_used);
  const WalkResult steady = walk(in, first.end_residency, last_used);

  core::PlanDecision decision;
  decision.strategy = "reactive";
  decision.schedule =
      core::cyclic_preamble(in, first.end_residency, steady.schedule);
  decision.schedule.insert(decision.schedule.end(), steady.schedule.begin(),
                           steady.schedule.end());
  decision.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
          .count();
  return decision;
}

}  // namespace tahoe::baselines
