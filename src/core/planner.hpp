// TahoePolicy: the paper's placement planner.
//
// Workflow (Section "data placement decision and enforcement" of the paper
// line, re-targeted to task groups and to any number of memory tiers):
//
//  1. For each group, every profiled data unit gets one Eq. (7) weight per
//     constrained tier t (every tier but the capacity tier):
//     w_t = BFT_t - COST_t - extra_COST_t, where BFT_t comes from the
//     calibrated performance models (Eqs. (1)-(5)) for serving the unit
//     from t instead of the capacity tier, COST_t from Eq. (6) with the
//     overlap window derived from the task graph's last-reference
//     analysis, and extra_COST_t from the evictions needed to make room.
//  2. Per-group multi-choice knapsacks over the constrained tiers produce
//     the *phase-local* plan; a single one over per-unit benefits summed
//     across groups produces the *cross-phase global* plan. A two-tier
//     machine has one constrained tier (DRAM), where each knapsack is the
//     paper's 0/1 knapsack.
//  3. The plan with the larger predicted per-iteration gain wins and is
//     compiled into a cyclic ScheduledCopy list (with a preamble that
//     reconciles the decision-time placement on the first enforcement
//     iteration).
#pragma once

#include <optional>

#include "core/perf_model.hpp"
#include "core/policy.hpp"

namespace tahoe::core {

struct TahoeOptions {
  /// Account for NVM read/write asymmetry (Eqs. (4)/(5)); disabling
  /// reproduces the "w.o drw" ablation (Eqs. (2)/(3)).
  bool distinguish_rw = true;
  /// Force a strategy instead of letting predicted gain choose
  /// (for the technique-contribution ablation).
  enum class Strategy { Auto, GlobalOnly, LocalOnly };
  Strategy strategy = Strategy::Auto;
  /// When false, disable lookahead: every copy triggers exactly when it is
  /// needed, exposing the full movement cost (the proactive-migration
  /// ablation).
  bool proactive = true;
};

class TahoePolicy : public Policy {
 public:
  /// `constants` comes from offline calibration (calibrate()), including
  /// the sensitivity thresholds t1/t2.
  TahoePolicy(ModelConstants constants, TahoeOptions options = {});

  std::string name() const override { return "tahoe"; }
  bool needs_profiling() const override { return true; }
  PlanDecision decide(const PlanInputs& in) override;

 private:
  ModelConstants constants_;
  TahoeOptions options_;
};

/// Eq. (7) terms of one unit in one group, one entry per constrained tier
/// (index = TierId; a two-tier machine has only tier 0, DRAM). Exposed for
/// tests.
struct UnitWeight {
  UnitKey unit;
  Sensitivity sensitivity = Sensitivity::Mixed;
  std::vector<double> benefit;  ///< per constrained tier
  std::vector<double> cost;
  std::vector<double> extra_cost;
  double weight(std::size_t t) const noexcept {
    return benefit[t] - cost[t] - extra_cost[t];
  }
};

/// Compute the Eq. (7) weight table for group `g` given the residency
/// before the group (units on constrained tiers; every other unit is on
/// the capacity tier). Exposed for testing.
std::vector<UnitWeight> group_weights(const PlanInputs& in,
                                      const PerfModel& model, task::GroupId g,
                                      const Residency& residents_before,
                                      bool distinguish_rw);

/// Copies in group `last` that take a body ending at `body_end` back to
/// `steady_start`: evictions of the units that end off their start tier,
/// then fills, so that same-trigger order keeps every tier within
/// capacity. Exposed for testing.
std::vector<task::ScheduledCopy> restore_copies(const PlanInputs& in,
                                                const Residency& steady_start,
                                                const Residency& body_end,
                                                task::GroupId last);

// ---- Multi-tenant serving plan (per-tenant capacity rows). ----
//
// The serving subsystem (src/serve/) registers N concurrent applications
// against one machine. Planning is the multi-tenant variant of the
// knapsack: every tenant contributes fast-tier promotion candidates, and
// the shared fast tier is arbitrated under per-tenant capacity rows
// (quotas) with priority-weighted values (core::solve_tenant_rows). The
// quota-free baseline runs the same candidates through the plain shared
// 0/1 knapsack, blind to tenants and priorities.

/// One fast-tier promotion candidate of a tenant. `value` is the modeled
/// seconds saved per second of request traffic when the unit is served
/// from the fast tier instead of the capacity tier.
struct TenantUnitCandidate {
  UnitKey unit;
  std::uint64_t bytes = 0;
  double value = 0.0;
};

struct TenantDemand {
  std::string name;
  double priority = 1.0;
  /// Per-tenant capacity row in bytes; 0 derives the row from the
  /// tenant's priority share of the fast tier (derive_tenant_quotas).
  std::uint64_t quota_bytes = 0;
  std::vector<TenantUnitCandidate> candidates;
};

struct TenantPlacementPlan {
  /// Units placed on the fast tier, per tenant (same order as the input).
  std::vector<std::vector<UnitKey>> promoted;
  std::vector<std::uint64_t> quota_bytes;    ///< effective rows used
  std::vector<std::uint64_t> planned_bytes;  ///< fast-tier bytes per tenant
  double total_value = 0.0;  ///< priority-weighted (QoS) or raw (quota-free)
};

/// Priority-proportional split of the fast tier: tenant i gets
/// floor(capacity * priority_i / sum(priorities)) bytes. Deterministic;
/// the rounding remainder stays unreserved (the shared-capacity DP may
/// still hand it to any tenant within its row).
std::vector<std::uint64_t> derive_tenant_quotas(
    std::uint64_t fast_capacity, const std::vector<double>& priorities);

/// Plan fast-tier residency for N tenants sharing `fast_capacity` bytes.
/// With `enforce_quotas`, per-tenant rows and priorities arbitrate the
/// tier (multi-tenant knapsack); without, one shared knapsack over all
/// candidates ignores tenancy entirely.
TenantPlacementPlan plan_tenants(const std::vector<TenantDemand>& tenants,
                                 std::uint64_t fast_capacity,
                                 bool enforce_quotas);

}  // namespace tahoe::core
