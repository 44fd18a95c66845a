// Analytic last-level-cache filter.
//
// The fluid simulator needs, for every (task, data object) pair, the
// main-memory traffic that survives the cache. Trace-driven simulation of
// every access would dominate runtime, so the engine uses a closed-form
// model validated against a trace-driven set-associative simulator in the
// test suite (tests/cache_sim.hpp):
//
//   line_acc    = accesses collapsed by spatial adjacency (same-line
//                 neighbours of a just-fetched line always hit)
//   compulsory  = footprint / line          (every touched line fills once)
//   reuse       = line_acc - compulsory     (potentially cache-resident)
//   hit_prob    = locality * min(1, share / footprint)
//   read_lines  = compulsory + miss portion of reuse loads + store-miss fills
//   write_lines = dirty lines written back  (store misses)
//
// `share` is the fraction of LLC capacity attributable to this object,
// proportional to its footprint among all objects the task touches — the
// standard proportional-occupancy approximation.
#pragma once

#include <cstdint>

#include "memsim/access.hpp"

namespace tahoe::memsim {

struct CacheModel {
  std::uint64_t llc_bytes = 0;

  /// Filter one object's traffic given the total footprint the task
  /// touches concurrently (for proportional LLC sharing).
  MemTraffic filter(const ObjectTraffic& t,
                    std::uint64_t task_total_footprint) const noexcept;
};

}  // namespace tahoe::memsim
