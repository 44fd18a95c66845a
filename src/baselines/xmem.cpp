#include "baselines/xmem.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/assert.hpp"

namespace tahoe::baselines {

core::PlanDecision XMemPolicy::decide(const core::PlanInputs& in) {
  const auto t_begin = std::chrono::steady_clock::now();
  TAHOE_REQUIRE(in.graph != nullptr && in.machine != nullptr,
                "xmem needs graph and machine");

  // Offline profile: aggregate ground-truth traffic per *object* (X-Mem
  // treats access patterns as homogeneous within an object).
  struct Hot {
    double bytes = 0.0;
    double dep_weighted = 0.0;  // accesses weighted by dependence fraction
    double accesses = 0.0;
  };
  std::map<hms::ObjectId, Hot> hotness;
  for (const task::Task& t : in.graph->tasks()) {
    for (const task::DataAccess& a : t.accesses) {
      Hot& h = hotness[a.object];
      const auto acc = static_cast<double>(a.traffic.accesses());
      h.accesses += acc;
      h.bytes += acc * 64.0;
      h.dep_weighted += acc * a.traffic.dep_frac;
    }
  }

  // Rank objects: accessed bytes per byte of size, with latency-bound
  // (pointer-chasing-like) objects boosted — they suffer most on NVM.
  struct Ranked {
    hms::ObjectId id;
    double score;
    std::uint64_t size;
  };
  std::vector<Ranked> ranked;
  for (const auto& [id, h] : hotness) {
    if (in.pinned(id)) continue;  // degraded to NVM; not a DRAM candidate
    const core::ObjectInfo& info = in.object(id);
    const std::uint64_t size = info.total_bytes();
    if (size == 0 || h.accesses <= 0.0) continue;
    const double chase_frac = h.dep_weighted / h.accesses;
    const double density = h.bytes / static_cast<double>(size);
    ranked.push_back(Ranked{id, density * (1.0 + 2.0 * chase_frac), size});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });

  // Greedy fill of DRAM with whole objects.
  const std::uint64_t capacity =
      in.machine->tier(in.machine->fastest_tier()).capacity;
  std::uint64_t used = 0;
  std::vector<hms::ObjectId> chosen;
  for (const Ranked& r : ranked) {
    if (used + r.size <= capacity) {
      chosen.push_back(r.id);
      used += r.size;
    }
  }

  // Static schedule: evict whatever else is in DRAM, then fill; all at
  // iteration start (no-ops after the first iteration).
  core::PlanDecision decision;
  decision.strategy = "static-offline";
  core::Residency target;
  for (const hms::ObjectId id : chosen) {
    const core::ObjectInfo& info = in.object(id);
    for (std::size_t c = 0; c < info.chunk_bytes.size(); ++c) {
      target[{id, c}] = in.machine->fastest_tier();
    }
  }
  decision.schedule = core::cyclic_preamble(in, target, {});
  decision.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
          .count();
  return decision;
}

}  // namespace tahoe::baselines
