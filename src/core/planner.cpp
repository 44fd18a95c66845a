#include "core/planner.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>

#include "common/assert.hpp"
#include "core/knapsack.hpp"
#include "hms/space_manager.hpp"

namespace tahoe::core {
namespace {

using Unit = hms::SpaceManager::Unit;

/// Eq. (6) treats a fully-overlapped copy as free, but an in-flight copy
/// still steals memory bandwidth from the computation it hides behind
/// (the fluid simulator charges this for real). The planner surcharges
/// overlapped copy time by this share so that high-frequency phase-local
/// plans only win when their benefit genuinely covers the contention.
constexpr double kOverlapContention = 1.0;

memsim::SampledCounts per_iteration(const memsim::SampledCounts& total,
                                    std::size_t iterations) {
  TAHOE_REQUIRE(iterations > 0, "no profiled iterations");
  memsim::SampledCounts out;
  out.loads = total.loads / iterations;
  out.stores = total.stores / iterations;
  out.samples_with_access = total.samples_with_access / iterations;
  out.total_samples = total.total_samples / iterations;
  return out;
}

/// Earliest group at which a migration of `unit` for group `g` may be
/// triggered: right after the unit's latest reference before g.
task::GroupId trigger_for(const task::TaskGraph& graph, const UnitKey& unit,
                          task::GroupId g) {
  const auto last = graph.last_reference_before(unit.object, unit.chunk, g);
  return last.has_value() ? *last + 1 : 0;
}

/// Overlap window: predicted execution time of the groups between the
/// trigger and the needing group.
double window_seconds(const PhaseProfiles& profiles, task::GroupId trigger,
                      task::GroupId g) {
  double w = 0.0;
  for (task::GroupId j = trigger; j < g; ++j) w += profiles.group_duration(j);
  return w;
}

/// The per-group plan-state transition machinery, shared by both passes of
/// the local search and by the global plan's preamble construction.
class PlanState {
 public:
  PlanState(const PlanInputs& in, std::uint64_t dram_capacity)
      : in_(in), space_(dram_capacity) {}

  /// Seed residency from a list of units.
  void seed(const std::vector<Unit>& residents) {
    for (const Unit& u : residents) {
      const bool ok =
          space_.add(u.first, u.second, in_.unit_bytes(u.first, u.second));
      TAHOE_ASSERT(ok, "decision-time residency exceeds DRAM capacity");
    }
  }

  std::vector<Unit> residents() const {
    std::vector<Unit> out;
    for (const auto& [unit, bytes] : space_.contents()) {
      (void)bytes;
      out.push_back(unit);
    }
    return out;
  }

  std::vector<UnitKey> residents_keys() const {
    std::vector<UnitKey> out;
    for (const auto& [unit, bytes] : space_.contents()) {
      (void)bytes;
      out.push_back(UnitKey{unit.first, unit.second});
    }
    return out;
  }

  /// Make the chosen units of group `g` resident, emitting eviction and
  /// fill copies into `schedule` (when provided). Returns the number of
  /// fills emitted.
  std::size_t apply_group(task::GroupId g, const std::vector<UnitKey>& chosen,
                          std::vector<task::ScheduledCopy>* schedule) {
    // Pin everything this group keeps or gains so victims are picked among
    // the rest.
    std::vector<Unit> pinned;
    pinned.reserve(chosen.size());
    for (const UnitKey& u : chosen) pinned.emplace_back(u.object, u.chunk);

    std::size_t fills = 0;
    std::vector<task::ScheduledCopy> group_fills;
    for (const UnitKey& u : chosen) {
      const Unit unit{u.object, u.chunk};
      const std::uint64_t bytes = in_.unit_bytes(u.object, u.chunk);
      if (space_.resident(unit.first, unit.second)) continue;

      // Evict as needed.
      const std::vector<Unit> victims = space_.pick_victims(bytes, pinned);
      if (!space_.can_fit(bytes) && victims.empty()) {
        continue;  // cannot make room (e.g. everything else pinned)
      }
      for (const Unit& v : victims) {
        space_.remove(v.first, v.second);
        if (schedule != nullptr) {
          const task::GroupId vt =
              trigger_for(*in_.graph, UnitKey{v.first, v.second}, g);
          evict_high_water_ = std::max(evict_high_water_, vt);
          schedule->push_back(task::ScheduledCopy{
              v.first, v.second, in_.unit_bytes(v.first, v.second),
              memsim::kNvm, vt, g});
        }
      }
      const bool ok = space_.add(unit.first, unit.second, bytes);
      TAHOE_ASSERT(ok, "fill does not fit after eviction");
      if (schedule != nullptr) {
        group_fills.push_back(task::ScheduledCopy{
            u.object, u.chunk, bytes, memsim::kDram,
            trigger_for(*in_.graph, u, g), g});
      }
      ++fills;
    }
    if (schedule != nullptr) {
      // Capacity safety: a fill must never land before ANY eviction whose
      // space it may be using. The plan walk reasons about DRAM occupancy
      // sequentially, but copies fire by trigger time — so a far-lookahead
      // fill could otherwise jump ahead of an earlier group's eviction.
      // Clamping to the walk-global eviction high-water mark keeps the
      // firing order consistent with the walk (the helper FIFO then
      // serializes same-trigger copies in schedule order, evictions
      // first).
      for (task::ScheduledCopy& c : group_fills) {
        c.trigger_group = std::max(c.trigger_group, evict_high_water_);
        schedule->push_back(c);
      }
    }
    return fills;
  }

 private:
  const PlanInputs& in_;
  hms::SpaceManager space_;
  /// Latest eviction trigger emitted so far (fills may not fire earlier).
  task::GroupId evict_high_water_ = 0;
};

std::vector<Unit> dram_residents(const PlanInputs& in) {
  std::vector<Unit> out;
  for (const auto& [unit, dev] : in.current.entries()) {
    if (dev == memsim::kDram) out.push_back(unit);
  }
  return out;
}

}  // namespace

std::vector<UnitWeight> group_weights(
    const PlanInputs& in, const PerfModel& model, task::GroupId g,
    const std::vector<UnitKey>& residents_before, bool distinguish_rw) {
  TAHOE_REQUIRE(in.profiles != nullptr, "group_weights needs profiles");
  const PhaseProfiles& prof = *in.profiles;
  TAHOE_REQUIRE(g < prof.groups.size(), "group out of range");
  const double duration = prof.group_duration(g);

  // Hypothetical space state for extra-cost estimation.
  hms::SpaceManager space(in.machine->tier(memsim::kDram).capacity);
  for (const UnitKey& u : residents_before) {
    (void)space.add(u.object, u.chunk, in.unit_bytes(u.object, u.chunk));
  }

  std::vector<UnitWeight> out;
  for (const auto& [unit, counts] : prof.groups[g].units) {
    // Degraded objects are pinned to NVM: never a promotion candidate.
    if (in.pinned(unit.object)) continue;
    const memsim::SampledCounts per_it =
        per_iteration(counts, prof.iterations_profiled);
    if (per_it.accesses() == 0) continue;

    UnitWeight w;
    w.unit = unit;
    w.sensitivity = model.classify(model.bandwidth_estimate(per_it, duration));
    // The constant-factor correction is calibrated on one access pattern;
    // element width and caching make it off by small integer factors for
    // others (the paper's acknowledged limitation). Moving one object can
    // never save more than the phase takes, so clamp the prediction there.
    w.benefit =
        std::min(model.benefit(per_it, duration, distinguish_rw), duration);

    const bool resident =
        std::find(residents_before.begin(), residents_before.end(), unit) !=
        residents_before.end();
    if (!resident) {
      const std::uint64_t bytes = in.unit_bytes(unit.object, unit.chunk);
      const task::GroupId trig = trigger_for(*in.graph, unit, g);
      const double window = window_seconds(prof, trig, g);
      const double copy = model.copy_seconds(bytes, /*to_dram=*/true);
      w.cost = model.movement_cost(bytes, window, /*to_dram=*/true) +
               kOverlapContention * std::min(copy, window);
      if (!space.can_fit(bytes)) {
        for (const Unit& v : space.pick_victims(bytes)) {
          w.extra_cost += model.copy_seconds(
              in.unit_bytes(v.first, v.second), /*to_dram=*/false);
        }
      }
    }
    out.push_back(w);
  }
  return out;
}

TahoePolicy::TahoePolicy(ModelConstants constants, TahoeOptions options)
    : constants_(constants), options_(options) {
  constants_.t1 = options_.t1;
  constants_.t2 = options_.t2;
}

PlanDecision TahoePolicy::decide(const PlanInputs& in) {
  const auto t_begin = std::chrono::steady_clock::now();
  TAHOE_REQUIRE(in.graph != nullptr && in.machine != nullptr &&
                    in.profiles != nullptr,
                "tahoe policy needs graph, machine and profiles");
  if (in.machine->num_tiers() > 2) return decide_multi(in);
  const memsim::Machine& machine = *in.machine;
  const PerfModel model(constants_, machine.tier(memsim::kDram),
                        machine.tier(memsim::kNvm), machine.copy_engine_bw,
                        machine.sample_interval);
  const std::uint64_t capacity = machine.tier(memsim::kDram).capacity;
  const std::size_t num_groups = in.profiles->groups.size();

  // ---------------- phase-local search ----------------
  // Pass 1 establishes the end-of-iteration residency; pass 2 replans from
  // that steady state and emits the cyclic schedule.
  auto run_pass = [&](const std::vector<Unit>& start_residents,
                      std::vector<task::ScheduledCopy>* schedule,
                      double* gain_out,
                      std::vector<PlanCandidate>* prov) -> std::vector<Unit> {
    PlanState state(in, capacity);
    state.seed(start_residents);
    double gain = 0.0;
    for (task::GroupId g = 0; g < num_groups; ++g) {
      const std::vector<UnitKey> residents = state.residents_keys();
      const std::vector<UnitWeight> weights =
          group_weights(in, model, g, residents, options_.distinguish_rw);
      std::vector<KnapsackItem> items;
      items.reserve(weights.size());
      for (const UnitWeight& w : weights) {
        items.push_back(KnapsackItem{
            in.unit_bytes(w.unit.object, w.unit.chunk), w.weight()});
      }
      const KnapsackResult sol = solve(items, capacity);
      std::vector<UnitKey> chosen;
      chosen.reserve(sol.chosen.size());
      for (std::size_t idx : sol.chosen) chosen.push_back(weights[idx].unit);
      if (prov != nullptr) {
        std::size_t next = 0;  // sol.chosen is ascending
        for (std::size_t i = 0; i < weights.size(); ++i) {
          const UnitWeight& uw = weights[i];
          const bool accepted =
              next < sol.chosen.size() && sol.chosen[next] == i;
          if (accepted) ++next;
          PlanCandidate c;
          c.object_id = static_cast<std::uint64_t>(uw.unit.object);
          c.chunk = uw.unit.chunk;
          c.pass = "local";
          c.group = g;
          c.sensitivity = to_string(uw.sensitivity);
          c.benefit = uw.benefit;
          c.cost = uw.cost;
          c.extra_cost = uw.extra_cost;
          c.value = uw.weight();
          c.bytes = items[i].size;
          c.accepted = accepted;
          c.reason = accepted ? "selected"
                     : uw.weight() <= 0.0 ? "non-positive-weight"
                                          : "capacity";
          prov->push_back(std::move(c));
        }
      }
      gain += sol.total_value;
      state.apply_group(g, chosen, schedule);
    }
    if (gain_out != nullptr) *gain_out = gain;
    return state.residents();
  };

  const std::vector<Unit> current = dram_residents(in);
  // Pass 1: establish an end-of-iteration residency from the decision-time
  // state. Pass 2 replans from there and emits the cyclic body. The
  // preamble then pins the iteration-start residency to pass 2's starting
  // state, making the cycle capacity-safe by construction.
  const std::vector<Unit> steady_start =
      run_pass(current, nullptr, nullptr, nullptr);

  std::vector<task::ScheduledCopy> local_body;
  double local_gain = 0.0;
  std::vector<PlanCandidate> provenance;
  run_pass(steady_start, &local_body, &local_gain, &provenance);

  std::vector<task::ScheduledCopy> local_schedule =
      cyclic_preamble(in, steady_start, local_body);
  local_schedule.insert(local_schedule.end(), local_body.begin(),
                        local_body.end());

  // ---------------- cross-phase global search ----------------
  // Aggregate each unit's benefit over all groups; one knapsack; no
  // movement within the iteration (cost is one-time and amortizes away).
  std::map<UnitKey, double> total_benefit;
  // Dominant (max single-group benefit) sensitivity per unit, recorded in
  // the provenance so the explain export can show why a unit aggregated
  // the way it did.
  std::map<UnitKey, std::pair<double, Sensitivity>> dominant;
  std::vector<std::vector<UnitWeight>> per_group_weights(num_groups);
  for (task::GroupId g = 0; g < num_groups; ++g) {
    per_group_weights[g] =
        group_weights(in, model, g, {}, options_.distinguish_rw);
    for (const UnitWeight& w : per_group_weights[g]) {
      total_benefit[w.unit] += w.benefit;
      const auto [it, inserted] =
          dominant.try_emplace(w.unit, w.benefit, w.sensitivity);
      if (!inserted && w.benefit > it->second.first) {
        it->second = {w.benefit, w.sensitivity};
      }
    }
  }
  std::vector<UnitKey> global_units;
  std::vector<KnapsackItem> global_items;
  for (const auto& [unit, benefit] : total_benefit) {
    global_units.push_back(unit);
    global_items.push_back(
        KnapsackItem{in.unit_bytes(unit.object, unit.chunk), benefit});
  }
  const KnapsackResult global_sol = solve(global_items, capacity);
  const double global_gain = global_sol.total_value;
  {
    std::size_t next = 0;  // global_sol.chosen is ascending
    for (std::size_t i = 0; i < global_units.size(); ++i) {
      const bool accepted =
          next < global_sol.chosen.size() && global_sol.chosen[next] == i;
      if (accepted) ++next;
      PlanCandidate c;
      c.object_id = static_cast<std::uint64_t>(global_units[i].object);
      c.chunk = global_units[i].chunk;
      c.pass = "global";
      c.sensitivity = to_string(dominant.at(global_units[i]).second);
      c.benefit = global_items[i].value;
      c.value = global_items[i].value;
      c.bytes = global_items[i].size;
      c.accepted = accepted;
      c.reason = accepted ? "selected"
                 : global_items[i].value <= 0.0 ? "non-positive-weight"
                                                : "capacity";
      provenance.push_back(std::move(c));
    }
  }
  // Degradation pins are part of the story: they explain why an object
  // never even appeared as a candidate.
  for (const hms::ObjectId id : in.pinned_nvm) {
    PlanCandidate c;
    c.object_id = static_cast<std::uint64_t>(id);
    c.pass = "pinned";
    c.accepted = false;
    c.reason = "pinned-nvm";
    provenance.push_back(std::move(c));
  }

  std::vector<Unit> global_target;
  for (std::size_t idx : global_sol.chosen) {
    global_target.emplace_back(global_units[idx].object,
                               global_units[idx].chunk);
  }
  std::vector<task::ScheduledCopy> global_schedule =
      cyclic_preamble(in, global_target, {});

  // ---------------- choose ----------------
  PlanDecision decision;
  bool use_global = global_gain >= local_gain;
  if (options_.strategy == TahoeOptions::Strategy::GlobalOnly) {
    use_global = true;
  } else if (options_.strategy == TahoeOptions::Strategy::LocalOnly) {
    use_global = false;
  }
  if (use_global) {
    decision.schedule = std::move(global_schedule);
    decision.strategy = "global";
    decision.predicted_gain = global_gain;
  } else {
    decision.schedule = std::move(local_schedule);
    decision.strategy = "local";
    decision.predicted_gain = local_gain;
  }
  decision.provenance = std::move(provenance);
  decision.local_gain = local_gain;
  decision.global_gain = global_gain;
  if (!options_.proactive) {
    // Ablation: no lookahead — copies fire only when needed.
    for (task::ScheduledCopy& c : decision.schedule) {
      c.trigger_group = c.needed_group;
    }
  }
  decision.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
          .count();
  return decision;
}

// ---------------------------------------------------------------------------
// N-tier planning path (more than two tiers).
// ---------------------------------------------------------------------------

namespace {

/// Plan-state machinery for N-tier machines: one SpaceManager per
/// *constrained* tier (every tier except the capacity tier) plus the
/// unit -> tier residency map. Evictions always demote to the capacity
/// tier; moves between constrained tiers free the source directly.
class MultiPlanState {
 public:
  MultiPlanState(const PlanInputs& in,
                 const std::vector<std::uint64_t>& capacities,
                 memsim::TierId cap_tier)
      : in_(in), cap_tier_(cap_tier) {
    spaces_.reserve(capacities.size());
    for (const std::uint64_t c : capacities) spaces_.emplace_back(c);
  }

  void seed(const std::map<Unit, memsim::TierId>& residents) {
    for (const auto& [u, t] : residents) {
      const bool ok =
          spaces_[t].add(u.first, u.second, in_.unit_bytes(u.first, u.second));
      TAHOE_ASSERT(ok, "decision-time residency exceeds a tier capacity");
      tier_of_[u] = t;
    }
  }

  const std::map<Unit, memsim::TierId>& residents() const noexcept {
    return tier_of_;
  }

  std::optional<memsim::TierId> tier_of(const Unit& u) const {
    const auto it = tier_of_.find(u);
    if (it == tier_of_.end()) return std::nullopt;
    return it->second;
  }

  /// Victims a fill of `bytes` on tier `t` would evict right now (what-if
  /// query for extra-cost estimation; state is not mutated).
  std::vector<Unit> hypothetical_victims(memsim::TierId t,
                                         std::uint64_t bytes) const {
    if (spaces_[t].can_fit(bytes)) return {};
    return spaces_[t].pick_victims(bytes);
  }

  /// Make the chosen (unit, tier) assignments of group `g` resident,
  /// emitting evictions (to the capacity tier) and fills into `schedule`
  /// when provided. Mirrors PlanState::apply_group, including the
  /// eviction-high-water clamp that keeps fills from firing before the
  /// evictions whose space they use.
  void apply_group(
      task::GroupId g,
      const std::vector<std::pair<UnitKey, memsim::TierId>>& chosen,
      std::vector<task::ScheduledCopy>* schedule) {
    std::vector<std::vector<Unit>> pinned(spaces_.size());
    for (const auto& [u, t] : chosen) pinned[t].emplace_back(u.object, u.chunk);

    std::vector<task::ScheduledCopy> group_fills;
    for (const auto& [uk, t] : chosen) {
      const Unit unit{uk.object, uk.chunk};
      const std::uint64_t bytes = in_.unit_bytes(uk.object, uk.chunk);
      const std::optional<memsim::TierId> cur = tier_of(unit);
      if (cur.has_value() && *cur == t) continue;
      const bool is_move = cur.has_value();
      if (is_move) {
        // Moving between constrained tiers frees the source directly.
        spaces_[*cur].remove(unit.first, unit.second);
        tier_of_.erase(unit);
      }
      const std::vector<Unit> victims = spaces_[t].pick_victims(bytes, pinned[t]);
      if (!spaces_[t].can_fit(bytes) && victims.empty()) {
        continue;  // cannot make room (e.g. everything else pinned)
      }
      for (const Unit& v : victims) {
        spaces_[t].remove(v.first, v.second);
        tier_of_.erase(v);
        if (schedule != nullptr) {
          const task::GroupId vt =
              trigger_for(*in_.graph, UnitKey{v.first, v.second}, g);
          evict_high_water_ = std::max(evict_high_water_, vt);
          schedule->push_back(task::ScheduledCopy{
              v.first, v.second, in_.unit_bytes(v.first, v.second), cap_tier_,
              vt, g});
        }
      }
      const bool ok = spaces_[t].add(unit.first, unit.second, bytes);
      TAHOE_ASSERT(ok, "fill does not fit after eviction");
      tier_of_[unit] = t;
      if (schedule != nullptr) {
        task::ScheduledCopy fill{
            uk.object, uk.chunk, bytes, t, trigger_for(*in_.graph, uk, g), g};
        if (is_move) {
          // The source tier's space frees only when this copy fires, so
          // later fills must be ordered after it exactly like evictions;
          // push it now (evictions and moves precede plain fills at equal
          // triggers) and raise the high-water mark to its trigger.
          fill.trigger_group = std::max(fill.trigger_group, evict_high_water_);
          evict_high_water_ = fill.trigger_group;
          schedule->push_back(fill);
        } else {
          group_fills.push_back(fill);
        }
      }
    }
    if (schedule != nullptr) {
      for (task::ScheduledCopy& c : group_fills) {
        c.trigger_group = std::max(c.trigger_group, evict_high_water_);
        schedule->push_back(c);
      }
    }
  }

 private:
  const PlanInputs& in_;
  memsim::TierId cap_tier_;
  std::vector<hms::SpaceManager> spaces_;
  std::map<Unit, memsim::TierId> tier_of_;
  task::GroupId evict_high_water_ = 0;
};

/// Eq. (7) terms of one unit for every constrained tier.
struct MultiUnitWeight {
  UnitKey unit;
  Sensitivity sensitivity = Sensitivity::Mixed;
  std::vector<double> benefit;     ///< per constrained tier
  std::vector<double> cost;
  std::vector<double> extra_cost;
  double weight(std::size_t t) const noexcept {
    return benefit[t] - cost[t] - extra_cost[t];
  }
};

std::vector<MultiUnitWeight> multi_group_weights(
    const PlanInputs& in, const PerfModel& model, task::GroupId g,
    const MultiPlanState& state, memsim::TierId cap_tier,
    bool distinguish_rw) {
  const PhaseProfiles& prof = *in.profiles;
  TAHOE_REQUIRE(g < prof.groups.size(), "group out of range");
  const double duration = prof.group_duration(g);
  const std::size_t T = model.num_tiers() - 1;

  std::vector<MultiUnitWeight> out;
  for (const auto& [unit, counts] : prof.groups[g].units) {
    if (in.pinned(unit.object)) continue;
    const memsim::SampledCounts per_it =
        per_iteration(counts, prof.iterations_profiled);
    if (per_it.accesses() == 0) continue;

    MultiUnitWeight w;
    w.unit = unit;
    w.sensitivity = model.classify(model.bandwidth_estimate(per_it, duration));
    w.benefit.assign(T, 0.0);
    w.cost.assign(T, 0.0);
    w.extra_cost.assign(T, 0.0);

    const Unit u{unit.object, unit.chunk};
    const std::optional<memsim::TierId> cur = state.tier_of(u);
    const memsim::TierId src = cur.value_or(cap_tier);
    const std::uint64_t bytes = in.unit_bytes(unit.object, unit.chunk);
    for (std::size_t t = 0; t < T; ++t) {
      const memsim::TierId tid = static_cast<memsim::TierId>(t);
      // Benefit relative to the capacity-tier baseline, clamped to the
      // phase duration as in the two-tier path.
      w.benefit[t] = std::min(
          model.benefit_pair(per_it, duration, distinguish_rw, cap_tier, tid),
          duration);
      if (cur.has_value() && *cur == tid) continue;  // resident: free
      const task::GroupId trig = trigger_for(*in.graph, unit, g);
      const double window = window_seconds(prof, trig, g);
      const double copy = model.copy_seconds_pair(bytes, src, tid);
      w.cost[t] = model.movement_cost_pair(bytes, window, src, tid) +
                  kOverlapContention * std::min(copy, window);
      for (const Unit& v : state.hypothetical_victims(tid, bytes)) {
        w.extra_cost[t] += model.copy_seconds_pair(
            in.unit_bytes(v.first, v.second), tid, cap_tier);
      }
    }
    out.push_back(std::move(w));
  }
  return out;
}

/// cyclic_preamble generalized to tier-valued start residencies: evict
/// every possibly-resident unit that the start state does not claim, then
/// fill each start unit onto its tier.
std::vector<task::ScheduledCopy> cyclic_preamble_multi(
    const PlanInputs& in, const std::map<Unit, memsim::TierId>& start,
    const std::vector<task::ScheduledCopy>& body, memsim::TierId cap_tier) {
  std::set<Unit> possible;
  for (const auto& [unit, dev] : in.current.entries()) {
    if (dev != cap_tier) possible.insert(unit);
  }
  for (const task::ScheduledCopy& c : body) {
    if (c.dst != cap_tier) possible.insert(Unit{c.object, c.chunk});
  }
  const auto first_reference = [&in](const Unit& u) -> task::GroupId {
    if (in.graph == nullptr) return 0;
    const auto refs = in.graph->groups_referencing(u.first, u.second);
    return refs.empty() ? 0 : refs.front();
  };
  std::map<Unit, memsim::TierId> current_tier;
  for (const auto& [unit, dev] : in.current.entries()) {
    if (dev != cap_tier) current_tier[unit] = dev;
  }
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
    const auto cur = current_tier.find(u);
    if (cur != current_tier.end() && cur->second != t) {
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

}  // namespace

PlanDecision TahoePolicy::decide_multi(const PlanInputs& in) {
  const auto t_begin = std::chrono::steady_clock::now();
  const memsim::Machine& machine = *in.machine;
  const PerfModel model(constants_, machine);
  const memsim::TierId cap_tier = machine.capacity_tier();
  const std::size_t T = machine.num_tiers() - 1;  // constrained tiers
  std::vector<std::uint64_t> capacities(T);
  for (std::size_t t = 0; t < T; ++t) {
    capacities[t] = machine.tier(static_cast<memsim::TierId>(t)).capacity;
  }
  const std::size_t num_groups = in.profiles->groups.size();

  // ---------------- phase-local search ----------------
  auto run_pass = [&](const std::map<Unit, memsim::TierId>& start_residents,
                      std::vector<task::ScheduledCopy>* schedule,
                      double* gain_out, std::vector<PlanCandidate>* prov)
      -> std::map<Unit, memsim::TierId> {
    MultiPlanState state(in, capacities, cap_tier);
    state.seed(start_residents);
    double gain = 0.0;
    for (task::GroupId g = 0; g < num_groups; ++g) {
      const std::vector<MultiUnitWeight> weights = multi_group_weights(
          in, model, g, state, cap_tier, options_.distinguish_rw);
      std::vector<MultiTierItem> items;
      items.reserve(weights.size());
      for (const MultiUnitWeight& w : weights) {
        MultiTierItem item;
        item.size = in.unit_bytes(w.unit.object, w.unit.chunk);
        item.values.resize(T);
        for (std::size_t t = 0; t < T; ++t) item.values[t] = w.weight(t);
        items.push_back(std::move(item));
      }
      const MultiTierResult sol = solve_multi(items, capacities);
      std::vector<std::pair<UnitKey, memsim::TierId>> chosen;
      for (std::size_t i = 0; i < weights.size(); ++i) {
        if (sol.assignment[i] >= 0) {
          chosen.emplace_back(weights[i].unit,
                              static_cast<memsim::TierId>(sol.assignment[i]));
        }
      }
      if (prov != nullptr) {
        for (std::size_t i = 0; i < weights.size(); ++i) {
          for (std::size_t t = 0; t < T; ++t) {
            const MultiUnitWeight& uw = weights[i];
            const bool accepted = sol.assignment[i] == static_cast<int>(t);
            PlanCandidate c;
            c.object_id = static_cast<std::uint64_t>(uw.unit.object);
            c.chunk = uw.unit.chunk;
            c.pass = "local";
            c.group = g;
            c.tier = static_cast<int>(t);
            c.sensitivity = to_string(uw.sensitivity);
            c.benefit = uw.benefit[t];
            c.cost = uw.cost[t];
            c.extra_cost = uw.extra_cost[t];
            c.value = uw.weight(t);
            c.bytes = items[i].size;
            c.accepted = accepted;
            c.reason = accepted                ? "selected"
                       : uw.weight(t) <= 0.0   ? "non-positive-weight"
                       : sol.assignment[i] >= 0 ? "other-tier"
                                                : "capacity";
            prov->push_back(std::move(c));
          }
        }
      }
      gain += sol.total_value;
      state.apply_group(g, chosen, schedule);
    }
    if (gain_out != nullptr) *gain_out = gain;
    return state.residents();
  };

  std::map<Unit, memsim::TierId> current;
  for (const auto& [unit, dev] : in.current.entries()) {
    if (dev != cap_tier) current[unit] = dev;
  }
  // The body repeats every iteration, so it must return to its own start
  // residency. With more than one constrained tier the per-group MCKP can
  // take a few rounds to settle (a unit parked on tier 1 this round may be
  // re-chosen for tier 2 next round); iterate toward the cyclic fixed
  // point. A pass depends only on its start residency, so the round that
  // returns to its own start is the body, schedule and all.
  constexpr int kMaxRounds = 6;
  std::map<Unit, memsim::TierId> steady_start = current;
  std::vector<task::ScheduledCopy> local_body;
  double local_gain = 0.0;
  std::vector<PlanCandidate> provenance;
  std::map<Unit, memsim::TierId> body_end;
  for (int round = 0; round < kMaxRounds; ++round) {
    local_body.clear();
    provenance.clear();
    body_end = run_pass(steady_start, &local_body, &local_gain, &provenance);
    if (body_end == steady_start || round + 1 == kMaxRounds) break;
    steady_start = std::move(body_end);
  }

  // No fixed point (the pass orbits a longer cycle): splice explicit
  // restore copies into the last group — evictions first, then fills, so
  // same-trigger schedule order keeps every tier within capacity — turning
  // the body into an exact cycle over steady_start.
  if (body_end != steady_start && num_groups > 0) {
    const task::GroupId last = static_cast<task::GroupId>(num_groups - 1);
    for (const auto& [u, t] : body_end) {
      const auto it = steady_start.find(u);
      if (it == steady_start.end() || it->second != t) {
        local_body.push_back(task::ScheduledCopy{
            u.first, u.second, in.unit_bytes(u.first, u.second), cap_tier,
            last, last});
      }
    }
    for (const auto& [u, t] : steady_start) {
      const auto it = body_end.find(u);
      if (it == body_end.end() || it->second != t) {
        local_body.push_back(task::ScheduledCopy{
            u.first, u.second, in.unit_bytes(u.first, u.second), t, last,
            last});
      }
    }
  }

  std::vector<task::ScheduledCopy> local_schedule =
      cyclic_preamble_multi(in, steady_start, local_body, cap_tier);
  local_schedule.insert(local_schedule.end(), local_body.begin(),
                        local_body.end());

  // ---------------- cross-phase global search ----------------
  // Aggregate each unit's per-tier benefit over all groups; one MCKP; no
  // movement within the iteration.
  std::map<UnitKey, std::vector<double>> total_benefit;
  std::map<UnitKey, std::pair<double, Sensitivity>> dominant;
  for (task::GroupId g = 0; g < num_groups; ++g) {
    const MultiPlanState empty_state(in, capacities, cap_tier);
    const std::vector<MultiUnitWeight> weights = multi_group_weights(
        in, model, g, empty_state, cap_tier, options_.distinguish_rw);
    for (const MultiUnitWeight& w : weights) {
      auto& acc = total_benefit[w.unit];
      if (acc.empty()) acc.assign(T, 0.0);
      double best_b = 0.0;
      for (std::size_t t = 0; t < T; ++t) {
        acc[t] += w.benefit[t];
        best_b = std::max(best_b, w.benefit[t]);
      }
      const auto [it, inserted] =
          dominant.try_emplace(w.unit, best_b, w.sensitivity);
      if (!inserted && best_b > it->second.first) {
        it->second = {best_b, w.sensitivity};
      }
    }
  }
  std::vector<UnitKey> global_units;
  std::vector<MultiTierItem> global_items;
  for (const auto& [unit, benefits] : total_benefit) {
    global_units.push_back(unit);
    MultiTierItem item;
    item.size = in.unit_bytes(unit.object, unit.chunk);
    item.values = benefits;
    global_items.push_back(std::move(item));
  }
  const MultiTierResult global_sol = solve_multi(global_items, capacities);
  const double global_gain = global_sol.total_value;
  for (std::size_t i = 0; i < global_units.size(); ++i) {
    for (std::size_t t = 0; t < T; ++t) {
      const bool accepted = global_sol.assignment[i] == static_cast<int>(t);
      PlanCandidate c;
      c.object_id = static_cast<std::uint64_t>(global_units[i].object);
      c.chunk = global_units[i].chunk;
      c.pass = "global";
      c.tier = static_cast<int>(t);
      c.sensitivity = to_string(dominant.at(global_units[i]).second);
      c.benefit = global_items[i].values[t];
      c.value = global_items[i].values[t];
      c.bytes = global_items[i].size;
      c.accepted = accepted;
      c.reason = accepted                           ? "selected"
                 : global_items[i].values[t] <= 0.0 ? "non-positive-weight"
                 : global_sol.assignment[i] >= 0    ? "other-tier"
                                                    : "capacity";
      provenance.push_back(std::move(c));
    }
  }
  for (const hms::ObjectId id : in.pinned_nvm) {
    PlanCandidate c;
    c.object_id = static_cast<std::uint64_t>(id);
    c.pass = "pinned";
    c.accepted = false;
    c.reason = "pinned-nvm";
    provenance.push_back(std::move(c));
  }

  std::map<Unit, memsim::TierId> global_target;
  for (std::size_t i = 0; i < global_units.size(); ++i) {
    if (global_sol.assignment[i] >= 0) {
      global_target[Unit{global_units[i].object, global_units[i].chunk}] =
          static_cast<memsim::TierId>(global_sol.assignment[i]);
    }
  }
  std::vector<task::ScheduledCopy> global_schedule =
      cyclic_preamble_multi(in, global_target, {}, cap_tier);

  // ---------------- choose ----------------
  PlanDecision decision;
  bool use_global = global_gain >= local_gain;
  if (options_.strategy == TahoeOptions::Strategy::GlobalOnly) {
    use_global = true;
  } else if (options_.strategy == TahoeOptions::Strategy::LocalOnly) {
    use_global = false;
  }
  if (use_global) {
    decision.schedule = std::move(global_schedule);
    decision.strategy = "global";
    decision.predicted_gain = global_gain;
  } else {
    decision.schedule = std::move(local_schedule);
    decision.strategy = "local";
    decision.predicted_gain = local_gain;
  }
  decision.provenance = std::move(provenance);
  decision.local_gain = local_gain;
  decision.global_gain = global_gain;
  if (!options_.proactive) {
    for (task::ScheduledCopy& c : decision.schedule) {
      c.trigger_group = c.needed_group;
    }
  }
  decision.decision_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin)
          .count();
  return decision;
}

std::vector<std::uint64_t> derive_tenant_quotas(
    std::uint64_t fast_capacity, const std::vector<double>& priorities) {
  double sum = 0.0;
  for (double p : priorities) {
    TAHOE_REQUIRE(p > 0.0, "tenant priority must be positive");
    sum += p;
  }
  std::vector<std::uint64_t> quotas(priorities.size(), 0);
  if (sum <= 0.0) return quotas;
  for (std::size_t t = 0; t < priorities.size(); ++t) {
    quotas[t] = static_cast<std::uint64_t>(
        static_cast<double>(fast_capacity) * (priorities[t] / sum));
  }
  return quotas;
}

TenantPlacementPlan plan_tenants(const std::vector<TenantDemand>& tenants,
                                 std::uint64_t fast_capacity,
                                 bool enforce_quotas) {
  TenantPlacementPlan plan;
  plan.promoted.resize(tenants.size());
  plan.quota_bytes.resize(tenants.size(), 0);
  plan.planned_bytes.resize(tenants.size(), 0);

  // Flatten every tenant's candidates into one item span, remembering the
  // (tenant, candidate) origin of each item.
  std::vector<TenantItem> items;
  std::vector<std::pair<std::size_t, std::size_t>> origin;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (std::size_t c = 0; c < tenants[t].candidates.size(); ++c) {
      const TenantUnitCandidate& cand = tenants[t].candidates[c];
      items.push_back({cand.bytes, cand.value, static_cast<std::uint32_t>(t)});
      origin.emplace_back(t, c);
    }
  }

  if (enforce_quotas) {
    std::vector<double> priorities;
    priorities.reserve(tenants.size());
    for (const TenantDemand& t : tenants) priorities.push_back(t.priority);
    const std::vector<std::uint64_t> derived =
        derive_tenant_quotas(fast_capacity, priorities);
    std::vector<TenantRow> rows(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      rows[t].quota =
          tenants[t].quota_bytes > 0 ? tenants[t].quota_bytes : derived[t];
      rows[t].priority = tenants[t].priority;
      plan.quota_bytes[t] = rows[t].quota;
    }
    const TenantKnapsackResult sol =
        solve_tenant_rows(items, fast_capacity, rows);
    for (std::size_t idx : sol.chosen) {
      const auto [t, c] = origin[idx];
      plan.promoted[t].push_back(tenants[t].candidates[c].unit);
      plan.planned_bytes[t] += tenants[t].candidates[c].bytes;
    }
    plan.total_value = sol.total_value;
    return plan;
  }

  // Quota-free baseline: one shared knapsack, blind to tenants and
  // priorities. quota_bytes stays 0 (no rows in effect).
  std::vector<KnapsackItem> flat(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    flat[i] = {items[i].size, items[i].value};
  }
  const KnapsackResult sol = solve(flat, fast_capacity);
  for (std::size_t idx : sol.chosen) {
    const auto [t, c] = origin[idx];
    plan.promoted[t].push_back(tenants[t].candidates[c].unit);
    plan.planned_bytes[t] += tenants[t].candidates[c].bytes;
  }
  plan.total_value = sol.total_value;
  return plan;
}

}  // namespace tahoe::core
