#include "core/planner.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

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

/// Capacities of the constrained tiers (every tier but the capacity tier),
/// fastest first. A two-tier machine has one: DRAM.
std::vector<std::uint64_t> constrained_capacities(const memsim::Machine& m) {
  std::vector<std::uint64_t> caps(m.capacity_tier());
  for (memsim::TierId t = 0; t < m.capacity_tier(); ++t) {
    caps[t] = m.tier(t).capacity;
  }
  return caps;
}

/// The plan walk: one SpaceManager per constrained tier plus the unit ->
/// tier residency map, advanced group by group. Shared by every round of
/// the local search, and by the weight tables that ask what a fill would
/// evict. Evictions always demote to the capacity tier; moves between
/// constrained tiers free the source directly.
class PlanWalk {
 public:
  PlanWalk(const PlanInputs& in, const std::vector<std::uint64_t>& capacities,
           memsim::TierId cap_tier)
      : in_(in), cap_tier_(cap_tier) {
    spaces_.reserve(capacities.size());
    for (const std::uint64_t c : capacities) spaces_.emplace_back(c);
  }

  void seed(const Residency& residents) {
    for (const auto& [u, t] : residents) {
      const bool ok =
          spaces_[t].add(u.first, u.second, in_.unit_bytes(u.first, u.second));
      TAHOE_ASSERT(ok, "decision-time residency exceeds a tier capacity");
      tier_of_[u] = t;
    }
  }

  const Residency& residents() const noexcept { return tier_of_; }

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
  /// when provided.
  void apply_group(
      task::GroupId g,
      const std::vector<std::pair<UnitKey, memsim::TierId>>& chosen,
      std::vector<task::ScheduledCopy>* schedule) {
    // Pin everything this group keeps or gains so victims are picked among
    // the rest.
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
      // Capacity safety: a fill must never land before ANY eviction whose
      // space it may be using. The plan walk reasons about tier occupancy
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
  }

 private:
  const PlanInputs& in_;
  memsim::TierId cap_tier_;
  std::vector<hms::SpaceManager> spaces_;
  Residency tier_of_;
  /// Latest eviction trigger emitted so far (fills may not fire earlier).
  task::GroupId evict_high_water_ = 0;
};

std::vector<UnitWeight> weigh_group(const PlanInputs& in,
                                    const PerfModel& model, task::GroupId g,
                                    const PlanWalk& walk,
                                    bool distinguish_rw) {
  const PhaseProfiles& prof = *in.profiles;
  TAHOE_REQUIRE(g < prof.groups.size(), "group out of range");
  const double duration = prof.group_duration(g);
  const std::size_t T = model.num_tiers() - 1;
  const memsim::TierId cap_tier = static_cast<memsim::TierId>(T);

  std::vector<UnitWeight> out;
  for (const auto& [unit, counts] : prof.groups[g].units) {
    // Degraded objects are pinned to the capacity tier: never a candidate.
    if (in.pinned(unit.object)) continue;
    const memsim::SampledCounts per_it =
        per_iteration(counts, prof.iterations_profiled);
    if (per_it.accesses() == 0) continue;

    UnitWeight w;
    w.unit = unit;
    w.sensitivity = model.classify(model.bandwidth_estimate(per_it, duration));
    w.benefit.assign(T, 0.0);
    w.cost.assign(T, 0.0);
    w.extra_cost.assign(T, 0.0);

    const Unit u{unit.object, unit.chunk};
    const std::optional<memsim::TierId> cur = walk.tier_of(u);
    const memsim::TierId src = cur.value_or(cap_tier);
    const std::uint64_t bytes = in.unit_bytes(unit.object, unit.chunk);
    for (std::size_t t = 0; t < T; ++t) {
      const memsim::TierId tid = static_cast<memsim::TierId>(t);
      // Benefit relative to the capacity-tier baseline. The constant-factor
      // correction is calibrated on one access pattern; element width and
      // caching make it off by small integer factors for others (the
      // paper's acknowledged limitation). Moving one object can never save
      // more than the phase takes, so clamp the prediction there.
      w.benefit[t] = std::min(
          model.benefit(per_it, duration, distinguish_rw, cap_tier, tid),
          duration);
      if (cur.has_value() && *cur == tid) continue;  // resident: free
      const task::GroupId trig = trigger_for(*in.graph, unit, g);
      const double window = window_seconds(prof, trig, g);
      const double copy = model.copy_seconds(bytes, src, tid);
      w.cost[t] = model.movement_cost(bytes, window, src, tid) +
                  kOverlapContention * std::min(copy, window);
      for (const Unit& v : walk.hypothetical_victims(tid, bytes)) {
        w.extra_cost[t] += model.copy_seconds(
            in.unit_bytes(v.first, v.second), tid, cap_tier);
      }
    }
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

std::vector<UnitWeight> group_weights(const PlanInputs& in,
                                      const PerfModel& model, task::GroupId g,
                                      const Residency& residents_before,
                                      bool distinguish_rw) {
  TAHOE_REQUIRE(in.machine != nullptr && in.profiles != nullptr,
                "group_weights needs a machine and profiles");
  PlanWalk walk(in, constrained_capacities(*in.machine),
                in.machine->capacity_tier());
  walk.seed(residents_before);
  return weigh_group(in, model, g, walk, distinguish_rw);
}

std::vector<task::ScheduledCopy> restore_copies(const PlanInputs& in,
                                                const Residency& steady_start,
                                                const Residency& body_end,
                                                task::GroupId last) {
  TAHOE_REQUIRE(in.machine != nullptr, "restore copies need the machine");
  const memsim::TierId cap_tier = in.machine->capacity_tier();
  std::vector<task::ScheduledCopy> copies;
  for (const auto& [u, t] : body_end) {
    const auto it = steady_start.find(u);
    if (it == steady_start.end() || it->second != t) {
      copies.push_back(task::ScheduledCopy{
          u.first, u.second, in.unit_bytes(u.first, u.second), cap_tier, last,
          last});
    }
  }
  for (const auto& [u, t] : steady_start) {
    const auto it = body_end.find(u);
    if (it == body_end.end() || it->second != t) {
      copies.push_back(task::ScheduledCopy{
          u.first, u.second, in.unit_bytes(u.first, u.second), t, last,
          last});
    }
  }
  return copies;
}

TahoePolicy::TahoePolicy(ModelConstants constants, TahoeOptions options)
    : constants_(constants), options_(options) {}

PlanDecision TahoePolicy::decide(const PlanInputs& in) {
  const auto t_begin = std::chrono::steady_clock::now();
  TAHOE_REQUIRE(in.graph != nullptr && in.machine != nullptr &&
                    in.profiles != nullptr,
                "tahoe policy needs graph, machine and profiles");
  const memsim::Machine& machine = *in.machine;
  const PerfModel model(constants_, machine);
  const memsim::TierId cap_tier = machine.capacity_tier();
  const std::vector<std::uint64_t> capacities = constrained_capacities(machine);
  const std::size_t T = capacities.size();  // constrained tiers
  const std::size_t num_groups = in.profiles->groups.size();

  // ---------------- phase-local search ----------------
  auto run_pass = [&](const Residency& start_residents,
                      std::vector<task::ScheduledCopy>* schedule,
                      double* gain_out,
                      std::vector<PlanCandidate>* prov) -> Residency {
    PlanWalk walk(in, capacities, cap_tier);
    walk.seed(start_residents);
    double gain = 0.0;
    for (task::GroupId g = 0; g < num_groups; ++g) {
      const std::vector<UnitWeight> weights =
          weigh_group(in, model, g, walk, options_.distinguish_rw);
      std::vector<MultiTierItem> items;
      items.reserve(weights.size());
      for (const UnitWeight& w : weights) {
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
            const UnitWeight& uw = weights[i];
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
      walk.apply_group(g, chosen, schedule);
    }
    if (gain_out != nullptr) *gain_out = gain;
    return walk.residents();
  };

  Residency current;
  for (const auto& [unit, dev] : in.current.entries()) {
    if (dev != cap_tier) current[unit] = dev;
  }
  // The body repeats every iteration, so it must return to its own start
  // residency. A pass from the decision-time residency need not, and the
  // pass from where that one ended may move again (a unit parked on tier 1
  // this round may be re-chosen for tier 2 next round, or a late eviction
  // may change what an early group keeps); iterate toward the cyclic fixed
  // point. A pass depends only on its start residency, so the round that
  // returns to its own start is the body, schedule and all.
  constexpr int kMaxRounds = 6;
  Residency steady_start = current;
  std::vector<task::ScheduledCopy> local_body;
  double local_gain = 0.0;
  std::vector<PlanCandidate> provenance;
  Residency body_end;
  for (int round = 0; round < kMaxRounds; ++round) {
    local_body.clear();
    provenance.clear();
    body_end = run_pass(steady_start, &local_body, &local_gain, &provenance);
    if (body_end == steady_start || round + 1 == kMaxRounds) break;
    steady_start = std::move(body_end);
  }

  // No fixed point (the pass orbits a longer cycle): splice explicit
  // restore copies into the last group, turning the body into an exact
  // cycle over steady_start.
  if (body_end != steady_start && num_groups > 0) {
    const std::vector<task::ScheduledCopy> restore = restore_copies(
        in, steady_start, body_end,
        static_cast<task::GroupId>(num_groups - 1));
    local_body.insert(local_body.end(), restore.begin(), restore.end());
  }

  std::vector<task::ScheduledCopy> local_schedule =
      cyclic_preamble(in, steady_start, local_body);
  local_schedule.insert(local_schedule.end(), local_body.begin(),
                        local_body.end());

  // ---------------- cross-phase global search ----------------
  // Aggregate each unit's per-tier benefit over all groups; one MCKP; no
  // movement within the iteration (cost is one-time and amortizes away).
  std::map<UnitKey, std::vector<double>> total_benefit;
  // Dominant (max single-group benefit) sensitivity per unit, recorded in
  // the provenance so the explain export can show why a unit aggregated
  // the way it did.
  std::map<UnitKey, std::pair<double, Sensitivity>> dominant;
  for (task::GroupId g = 0; g < num_groups; ++g) {
    const PlanWalk empty_walk(in, capacities, cap_tier);
    const std::vector<UnitWeight> weights =
        weigh_group(in, model, g, empty_walk, options_.distinguish_rw);
    for (const UnitWeight& w : weights) {
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

  Residency global_target;
  for (std::size_t i = 0; i < global_units.size(); ++i) {
    if (global_sol.assignment[i] >= 0) {
      global_target[Unit{global_units[i].object, global_units[i].chunk}] =
          static_cast<memsim::TierId>(global_sol.assignment[i]);
    }
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
