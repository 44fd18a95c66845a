// N-tier hierarchy end-to-end: machine shape, the MCKP planner path,
// the one tier-indexed report layout, migration flows on the four-tier
// CXL platform, and the copy windows the phase-boundary protocol relies
// on, on two and four tiers.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/initial_placement.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "serve/driver.hpp"
#include "serve/service.hpp"
#include "trace/json.hpp"
#include "workloads/common.hpp"

namespace tahoe {
namespace {

memsim::Machine cxl(std::uint64_t hbm = 8 * kMiB, std::uint64_t dram = 8 * kMiB,
                    std::uint64_t cxl_dram = 8 * kMiB) {
  return memsim::machines::cxl_platform(hbm, dram, cxl_dram, 1 * kGiB);
}

/// Group k streams over object k, so on a machine whose fast tiers cannot
/// hold every object at once the planner must keep shuffling data.
class RotatingHotApp : public core::Application {
 public:
  RotatingHotApp(std::size_t objects, std::uint64_t bytes, std::size_t iters)
      : n_(objects), bytes_(bytes), iters_(iters) {}
  std::string name() const override { return "rotating-hot"; }
  std::size_t iterations() const override { return iters_; }

  void setup(hms::ObjectRegistry& registry,
             const hms::ChunkingPolicy& chunking) override {
    (void)chunking;
    ids_.clear();
    for (std::size_t i = 0; i < n_; ++i) {
      ids_.push_back(registry.create("obj" + std::to_string(i), bytes_,
                                     registry.capacity_tier()));
    }
  }

  void build_iteration(task::GraphBuilder& builder,
                       std::size_t iteration) override {
    (void)iteration;
    if (builder.keep_previous()) return;
    for (std::size_t i = 0; i < n_; ++i) {
      builder.begin_group("phase" + std::to_string(i));
      for (int k = 0; k < 4; ++k) {
        task::Task t;
        t.label = "work";
        t.compute_seconds = 1e-5;
        task::DataAccess a;
        a.object = ids_[i];
        a.mode = task::AccessMode::Read;
        a.traffic.loads = 2'000'000;
        a.traffic.footprint = bytes_;
        a.traffic.locality = 0.1;
        t.accesses = {a};
        builder.add_task(std::move(t));
      }
    }
  }

 private:
  std::size_t n_;
  std::uint64_t bytes_;
  std::size_t iters_;
  std::vector<hms::ObjectId> ids_;
};

core::RuntimeConfig config(const memsim::Machine& m) {
  core::RuntimeConfig c;
  c.machine = m;
  c.backing = hms::Backing::Virtual;
  c.attribution = true;
  c.fixed_decision_seconds = 0.0;
  return c;
}

core::TahoePolicy policy(const memsim::Machine& m,
                         core::TahoeOptions opts = {}) {
  return core::TahoePolicy(core::calibrate(m).to_constants(), opts);
}

/// DRAM holds one 6 MiB object of RotatingHotApp at a time.
memsim::Machine two_tier() {
  return memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(32 * kMiB), 0.5,
                                       1 * kGiB),
      8 * kMiB);
}

/// A short single-tenant KV serving run on the Optane preset.
core::RunReport serving_report() {
  const memsim::Machine machine = memsim::machines::optane_platform(64 * kMiB);
  serve::TenantManager tm(machine);
  serve::TenantConfig kv;
  kv.name = "kv";
  kv.arrival_hz = 400.0;
  serve::KvConfig shape;
  shape.shards = 2;
  shape.chunks_per_shard = 8;
  shape.chunk_bytes = 2 * kMiB;
  kv.service = serve::make_kv_service(shape);
  tm.add(std::move(kv));
  serve::ServeOptions opts;
  opts.duration_seconds = 0.02;
  opts.deterministic = true;
  return serve::run_serve(tm, opts).report;
}

trace::JsonValue report_doc(const core::RunReport& r) {
  std::ostringstream os;
  r.write_json(os);
  return trace::parse_json(os.str());
}

trace::JsonValue explain_doc(const core::RunReport& r) {
  std::ostringstream os;
  r.write_explain_json(os);
  return trace::parse_json(os.str());
}

/// Records, per nesting path (array elements share their array's path),
/// every key set an object at that path had.
void collect_key_sets(const trace::JsonValue& v, const std::string& path,
                      std::map<std::string, std::set<std::set<std::string>>>&
                          out) {
  if (v.is_object()) {
    std::set<std::string> keys;
    for (const auto& [k, child] : v.object) {
      keys.insert(k);
      collect_key_sets(child, path + "." + k, out);
    }
    out[path].insert(keys);
  } else if (v.is_array()) {
    for (const trace::JsonValue& e : v.array) {
      collect_key_sets(e, path + "[]", out);
    }
  }
}

std::vector<std::uint64_t> counts(const trace::JsonValue& array) {
  std::vector<std::uint64_t> out;
  for (const trace::JsonValue& e : array.array) {
    out.push_back(static_cast<std::uint64_t>(e.number));
  }
  return out;
}

std::set<std::pair<std::uint32_t, std::uint32_t>> flow_pairs(
    const core::RunReport& r) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const core::ObjectMigrationRow& o : r.objects) {
    for (const core::TierFlowRow& f : o.flows) pairs.insert({f.src, f.dst});
  }
  return pairs;
}

TEST(CxlPlatform, ShapeAndTierAccessors) {
  const memsim::Machine m = cxl();
  ASSERT_EQ(m.num_tiers(), 4u);
  EXPECT_EQ(m.fastest_tier(), 0u);
  EXPECT_EQ(m.capacity_tier(), 3u);
  EXPECT_EQ(m.tier(0).name, "HBM");
  EXPECT_EQ(m.tier(1).name, "DRAM");
  EXPECT_EQ(m.tier(2).name, "CXL-DRAM");
  EXPECT_EQ(m.tier(3).name, "Optane-PM");
  // Tiers are ordered fastest-first by read bandwidth.
  for (memsim::TierId t = 1; t < m.num_tiers(); ++t) {
    EXPECT_LT(m.tier(t).read_bw, m.tier(t - 1).read_bw) << "tier " << t;
  }
  // The deprecated two-tier accessors still resolve to the edge tiers.
  EXPECT_EQ(&m.tier(memsim::kDram), &m.tier(0));
}

TEST(CxlPlatform, PerPairCopyBandwidthFallsBackToEngineDefault) {
  const memsim::Machine m = cxl();
  EXPECT_GT(m.copy_bw_for(0, 1), m.copy_engine_bw);  // fast HBM<->DRAM link
  EXPECT_DOUBLE_EQ(m.copy_bw_for(1, 0), m.copy_bw_for(0, 1));
  // No configured path touches the capacity tier: engine default applies.
  EXPECT_DOUBLE_EQ(m.copy_bw_for(3, 0), m.copy_engine_bw);
  EXPECT_DOUBLE_EQ(m.copy_bw_for(2, 3), m.copy_engine_bw);
}

TEST(MultiTier, FourTierReportNamesEveryTier) {
  RotatingHotApp app(3, 6 * kMiB, 8);
  core::Runtime rt(config(cxl()));
  core::TahoePolicy p = policy(rt.machine());
  const core::RunReport report = rt.run(app, p);
  ASSERT_EQ(report.tier_names.size(), 4u);
  std::ostringstream os;
  report.write_json(os, {}, {}, {});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"tiers\":[\"HBM\",\"DRAM\",\"CXL-DRAM\",\"Optane-PM\"]"),
            std::string::npos);
  std::ostringstream es;
  report.write_explain_json(es);
  EXPECT_NE(es.str().find("\"schema_version\":5"), std::string::npos);
}

TEST(MultiTier, EveryRunKindSerializesOneTierIndexedLayout) {
  RotatingHotApp app2(2, 6 * kMiB, 6);
  core::Runtime rt2(config(two_tier()));
  core::TahoePolicy p2 = policy(rt2.machine());
  const core::RunReport two = rt2.run(app2, p2);
  RotatingHotApp app4(3, 6 * kMiB, 8);
  core::Runtime rt4(config(cxl()));
  core::TahoePolicy p4 = policy(rt4.machine());
  const core::RunReport four = rt4.run(app4, p4);
  const core::RunReport served = serving_report();
  ASSERT_FALSE(two.attribution.empty());
  ASSERT_FALSE(two.objects.empty());
  ASSERT_FALSE(four.objects.empty());
  ASSERT_FALSE(served.tenants.empty());

  // One key set per nesting path across all three reports, and across
  // their explain documents (no candidate here is pinned, the one kind
  // that carries no "tier").
  std::map<std::string, std::set<std::set<std::string>>> report_keys;
  std::map<std::string, std::set<std::set<std::string>>> explain_keys;
  for (const core::RunReport* r : {&two, &four, &served}) {
    const trace::JsonValue doc = report_doc(*r);
    EXPECT_EQ(doc.at("schema_version").number, 5.0) << r->workload;
    collect_key_sets(doc, "", report_keys);
    const trace::JsonValue explain = explain_doc(*r);
    EXPECT_EQ(explain.at("schema_version").number, 5.0) << r->workload;
    EXPECT_EQ(explain.at("tiers").array.size(), r->tier_names.size());
    collect_key_sets(explain, "", explain_keys);

    // Per-tier arrays are as long as "tiers"; flows name real tiers.
    const std::size_t tiers = doc.at("tiers").array.size();
    EXPECT_EQ(tiers, r->tier_names.size()) << r->workload;
    for (const trace::JsonValue& row : doc.at("attribution").array) {
      EXPECT_EQ(row.at("tier_loads").array.size(), tiers);
      EXPECT_EQ(row.at("tier_stores").array.size(), tiers);
    }
    for (const trace::JsonValue& obj : doc.at("objects").array) {
      for (const trace::JsonValue& f : obj.at("flows").array) {
        EXPECT_LT(f.at("src").number, static_cast<double>(tiers));
        EXPECT_LT(f.at("dst").number, static_cast<double>(tiers));
      }
    }
  }
  for (const auto* keys : {&report_keys, &explain_keys}) {
    for (const auto& [path, sets] : *keys) {
      EXPECT_EQ(sets.size(), 1u) << "key sets differ at '" << path << "'";
    }
  }
  EXPECT_TRUE(report_keys.contains(".objects[].flows[]"));
  EXPECT_TRUE(report_keys.contains(".tenants[].request_latency"));
  EXPECT_TRUE(explain_keys.contains(".plans[].candidates[]"));

  // A short or empty tier_names loses no count: the arrays still cover
  // every tier the row counts.
  for (const core::RunReport* r : {&two, &four}) {
    const trace::JsonValue full = report_doc(*r);
    for (const std::size_t names : {std::size_t{1}, std::size_t{0}}) {
      core::RunReport shortened = *r;
      shortened.tier_names.resize(names);
      const trace::JsonValue doc = report_doc(shortened);
      ASSERT_EQ(doc.at("attribution").array.size(),
                full.at("attribution").array.size());
      for (std::size_t i = 0; i < doc.at("attribution").array.size(); ++i) {
        const trace::JsonValue& row = doc.at("attribution").array[i];
        const trace::JsonValue& want = full.at("attribution").array[i];
        EXPECT_EQ(counts(row.at("tier_loads")), counts(want.at("tier_loads")));
        EXPECT_EQ(counts(row.at("tier_stores")),
                  counts(want.at("tier_stores")));
      }
    }
  }
  core::RunReport ragged;
  ragged.tier_names = {"DRAM"};
  core::AttributionRow row;
  row.tier_loads = {1, 2, 3};
  row.tier_stores = {4, 0, 6, 7};
  ragged.attribution.push_back(row);
  const trace::JsonValue doc = report_doc(ragged);
  const trace::JsonValue& out = doc.at("attribution").array.at(0);
  EXPECT_EQ(counts(out.at("tier_loads")),
            (std::vector<std::uint64_t>{1, 2, 3, 0}));
  EXPECT_EQ(counts(out.at("tier_stores")),
            (std::vector<std::uint64_t>{4, 0, 6, 7}));
}

TEST(MultiTier, MigratesAcrossMultipleDistinctTierPairs) {
  // Three 6 MiB hot objects over three 8 MiB fast tiers: each lands on a
  // different tier, so the promotion flows span distinct (src, dst) pairs.
  RotatingHotApp app(3, 6 * kMiB, 8);
  core::Runtime rt(config(cxl()));
  core::TahoePolicy p = policy(rt.machine());
  const core::RunReport report = rt.run(app, p);
  EXPECT_GT(report.migrations, 0u);
  const auto pairs = flow_pairs(report);
  EXPECT_GE(pairs.size(), 2u) << "flows collapsed onto one tier pair";
  for (const auto& [src, dst] : pairs) {
    EXPECT_NE(src, dst);
    EXPECT_LT(src, 4u);
    EXPECT_LT(dst, 4u);
  }
}

TEST(MultiTier, LocalPlanMovesBothDirectionsAcrossNonAdjacentTiers) {
  // Four hot objects but only three constrained tiers: the phase-local
  // plan has to evict between phases, so data flows toward the capacity
  // tier as well as out of it, including across non-adjacent tier pairs.
  RotatingHotApp app(4, 6 * kMiB, 10);
  core::TahoeOptions opts;
  opts.strategy = core::TahoeOptions::Strategy::LocalOnly;
  core::Runtime rt(config(cxl()));
  core::TahoePolicy p = policy(rt.machine(), opts);
  const core::RunReport report = rt.run(app, p);
  EXPECT_EQ(report.strategy, "local");
  const auto pairs = flow_pairs(report);
  bool promotion = false, eviction = false, non_adjacent = false;
  for (const auto& [src, dst] : pairs) {
    if (dst < src) promotion = true;
    if (dst > src) eviction = true;
    const std::uint32_t gap = src > dst ? src - dst : dst - src;
    if (gap > 1) non_adjacent = true;
  }
  EXPECT_TRUE(promotion) << "no flow into a faster tier";
  EXPECT_TRUE(eviction) << "no flow toward the capacity tier";
  EXPECT_TRUE(non_adjacent) << "all flows between adjacent tiers";
  // The report-level promotion/eviction tallies agree with the flows.
  std::uint64_t promos = 0, evicts = 0;
  for (const core::ObjectMigrationRow& o : report.objects) {
    promos += o.promotions;
    evicts += o.evictions;
  }
  EXPECT_GT(promos, 0u);
  EXPECT_GT(evicts, 0u);
}

TEST(MultiTier, StaticRunsNameTiersExplicitly) {
  RotatingHotApp app(2, 6 * kMiB, 4);
  core::Runtime rt(config(cxl()));
  EXPECT_EQ(rt.run_static(app, 0).policy, "tier0-only");
  RotatingHotApp app1(2, 6 * kMiB, 4);
  EXPECT_EQ(rt.run_static(app1, 1).policy, "tier1-only");
  RotatingHotApp app3(2, 6 * kMiB, 4);
  EXPECT_EQ(rt.run_static(app3, 3).policy, "tier3-only");
}

TEST(MultiTier, InitialPlacementWaterfallsFastestFirst) {
  // Estimates rank a > b > c; capacities admit exactly one object per
  // constrained tier, so the waterfall assigns a->0, b->1, c->2 and the
  // coldest object stays on the capacity tier.
  std::vector<core::ObjectInfo> objects(4);
  const std::uint64_t sz = 6 * kMiB;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    objects[i].id = static_cast<hms::ObjectId>(i);
    objects[i].name = "o" + std::to_string(i);
    objects[i].chunk_bytes = {sz};
    objects[i].static_ref_estimate = 100.0 - 10.0 * static_cast<double>(i);
  }
  const auto placed = core::choose_initial_tiers(objects, cxl());
  ASSERT_EQ(placed.size(), 3u);
  std::map<hms::ObjectId, memsim::TierId> where;
  for (const auto& [unit, tier] : placed) where[unit.object] = tier;
  EXPECT_EQ(where.at(0), 0u);
  EXPECT_EQ(where.at(1), 1u);
  EXPECT_EQ(where.at(2), 2u);
  EXPECT_FALSE(where.contains(3));
}

/// Decorates a TahoePolicy: checks every copy of every decision against
/// the graph it was planned for. A copy must fire no later than the group
/// that needs it, and no group in [trigger, needed) may reference its
/// unit: the helper thread may still be moving the unit while those groups
/// run, and a real task that read it could read a chunk migrate_chunk is
/// about to free.
class CopyWindowCheck : public core::Policy {
 public:
  CopyWindowCheck(core::ModelConstants constants, core::TahoeOptions options,
                  std::string context)
      : inner_(std::move(constants), options), context_(std::move(context)) {}
  std::string name() const override { return inner_.name(); }
  bool needs_profiling() const override { return inner_.needs_profiling(); }

  core::PlanDecision decide(const core::PlanInputs& in) override {
    core::PlanDecision d = inner_.decide(in);
    const task::TaskGraph& graph = *in.graph;
    for (const task::ScheduledCopy& c : d.schedule) {
      EXPECT_LE(c.trigger_group, c.needed_group)
          << context_ << ": object " << c.object << " chunk " << c.chunk;
      for (const task::GroupId g :
           graph.groups_referencing(c.object, c.chunk)) {
        EXPECT_FALSE(g >= c.trigger_group && g < c.needed_group)
            << context_ << ": group " << g << " references object "
            << c.object << " chunk " << c.chunk << " inside its copy's window ["
            << c.trigger_group << ", " << c.needed_group << ")";
      }
      if (graph.last_reference_before(c.object, c.chunk, c.needed_group)) {
        ++after_a_reference;
      }
    }
    return d;
  }

  /// Copies whose unit an earlier group of the iteration references, so
  /// that their trigger is not simply group 0.
  std::size_t after_a_reference = 0;

 private:
  core::TahoePolicy inner_;
  std::string context_;
};

TEST(MultiTier, NoGroupReferencesAUnitWhileItsCopyMayBeInFlight) {
  // Every in-tree app at test scale (working sets of 38 KiB for mg to
  // 2.3 MiB for bt), under each strategy, on platform-a (NVM at half
  // DRAM's bandwidth and 4x its latency) and on FIG-NT's CXL pyramid
  // (HBM a quarter of DRAM, CXL-DRAM twice it), with 64 KiB, 256 KiB and
  // 1 MiB of DRAM.
  using Strategy = core::TahoeOptions::Strategy;
  const std::vector<std::pair<std::string, Strategy>> strategies{
      {"auto", Strategy::Auto},
      {"global", Strategy::GlobalOnly},
      {"local", Strategy::LocalOnly}};
  const std::vector<std::string> apps{"cg", "ft", "bt", "lu", "sp", "mg",
                                      "nekproxy", "heat", "cholesky"};
  std::map<std::string, std::size_t> after_a_reference;  // per machine
  for (const std::uint64_t dram : {64 * kKiB, 256 * kKiB, 1 * kMiB}) {
    memsim::DeviceModel nvm = memsim::devices::nvm_bw_fraction(
        memsim::devices::dram(dram), 0.5, 1 * kGiB);
    nvm.read_lat_s *= 4.0;
    nvm.write_lat_s *= 4.0;
    const std::vector<std::pair<std::string, memsim::Machine>> machines{
        {"platform-a", memsim::machines::platform_a(nvm, dram)},
        {"cxl", cxl(dram / 4, dram, 2 * dram)}};
    for (const auto& [machine_name, machine] : machines) {
      core::RuntimeConfig c;
      c.machine = machine;
      c.backing = hms::Backing::Virtual;
      c.fixed_decision_seconds = 0.0;
      core::Runtime rt(c);
      const core::ModelConstants constants =
          core::calibrate(rt.machine()).to_constants();
      for (const auto& [strategy_name, strategy] : strategies) {
        for (const std::string& app_name : apps) {
          core::TahoeOptions options;
          options.strategy = strategy;
          CopyWindowCheck check(constants, options,
                                machine_name + " " +
                                    std::to_string(dram / kKiB) + " KiB " +
                                    strategy_name + " " + app_name);
          auto app =
              workloads::make_workload(app_name, workloads::Scale::Test);
          rt.run(*app, check);
          after_a_reference[machine_name] += check.after_a_reference;
        }
      }
    }
  }
  // The sweep must check, on both machines, copies whose window opens
  // after an earlier reference: the ones a late trigger would break.
  for (const auto& [machine_name, n] : after_a_reference) {
    EXPECT_GT(n, 0u) << machine_name;
  }
}

}  // namespace
}  // namespace tahoe
