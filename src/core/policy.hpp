// Placement-policy interface.
//
// A Policy turns what is known after the profiling iterations into a
// *cyclic migration schedule*: the list of ScheduledCopy entries the
// runtime re-submits every iteration of the main loop. Copies whose unit is
// already on the destination tier are free no-ops, so a "static" plan is
// simply a schedule whose copies all become no-ops after the first
// enforcement iteration, while phase-local plans keep moving units within
// every iteration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/profiles.hpp"
#include "core/report.hpp"
#include "hms/placement.hpp"
#include "memsim/machine.hpp"
#include "task/graph.hpp"
#include "task/sim_executor.hpp"

namespace tahoe::core {

struct ObjectInfo {
  hms::ObjectId id = hms::kInvalidObject;
  std::string name;
  std::vector<std::uint64_t> chunk_bytes;
  double static_ref_estimate = 0.0;

  std::uint64_t total_bytes() const noexcept {
    std::uint64_t s = 0;
    for (std::uint64_t b : chunk_bytes) s += b;
    return s;
  }
};

/// A planned residency: the constrained tier (every tier but the capacity
/// tier) of each (object, chunk) unit placed there; every unit not listed
/// stays on the capacity tier.
using Residency =
    std::map<std::pair<hms::ObjectId, std::size_t>, memsim::TierId>;

struct PlanInputs {
  const task::TaskGraph* graph = nullptr;     ///< representative iteration
  const memsim::Machine* machine = nullptr;
  const PhaseProfiles* profiles = nullptr;    ///< null for offline policies
  std::vector<ObjectInfo> objects;
  hms::PlacementMap current;                  ///< placement at decision time
  /// Objects the degradation path pinned to NVM: repeated DRAM failures
  /// (reservation vetoes, aborted copies) demoted them, and every policy
  /// must keep them out of its DRAM plan when re-planning.
  std::vector<hms::ObjectId> pinned_nvm;

  std::uint64_t unit_bytes(hms::ObjectId id, std::size_t chunk) const;
  const ObjectInfo& object(hms::ObjectId id) const;
  bool pinned(hms::ObjectId id) const;
};

struct PlanDecision {
  std::vector<task::ScheduledCopy> schedule;  ///< cyclic, per iteration
  std::string strategy;                       ///< e.g. "global", "local"
  double predicted_gain = 0.0;                ///< modeled seconds saved/iter
  double decision_seconds = 0.0;              ///< measured planning cost
  /// Decision provenance: every candidate the policy weighed, with the
  /// Eq. (7) terms and accept/reject verdicts. Policies that do not model
  /// candidates leave it empty. Candidate `object` names are unresolved
  /// (the runtime fills them from ObjectInfo when recording the plan).
  std::vector<PlanCandidate> provenance;
  double local_gain = 0.0;   ///< phase-local alternative's predicted gain
  double global_gain = 0.0;  ///< cross-phase alternative's predicted gain
};

class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string name() const = 0;
  /// Whether the runtime must run profiling iterations for this policy.
  virtual bool needs_profiling() const { return false; }
  virtual PlanDecision decide(const PlanInputs& in) = 0;
};

/// Build the schedule preamble that forces the residency to exactly
/// `start` at each iteration boundary: evictions to the capacity tier
/// (trigger/needed group 0) for every unit that could sit on a constrained
/// tier but is not in `start` — i.e. the decision-time residents plus every
/// constrained-tier target of `body` — followed by fills of each `start`
/// unit onto its tier. All entries become free no-ops once the system
/// reaches its steady state, but they make cyclic schedules capacity-safe
/// regardless of the residency the previous iteration left behind.
std::vector<task::ScheduledCopy> cyclic_preamble(
    const PlanInputs& in, const Residency& start,
    const std::vector<task::ScheduledCopy>& body);

}  // namespace tahoe::core
