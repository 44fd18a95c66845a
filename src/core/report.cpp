#include "core/report.hpp"

#include "trace/json.hpp"

namespace tahoe::core {
namespace {

/// Count of tier `t` in a per-tier vector; tiers past its end served none.
std::uint64_t tier_count(const std::vector<std::uint64_t>& v, std::size_t t) {
  return t < v.size() ? v[t] : 0;
}

/// Same digest shape as the "histograms" section, reused for the
/// per-tenant latency fields so consumers parse one format.
void write_digest(trace::JsonWriter& w, const char* key,
                  const trace::HistogramSnapshot& h) {
  w.key(key).begin_object();
  w.kv("count", h.count());
  w.kv("sum", h.sum);
  w.kv("p50", h.p50());
  w.kv("p90", h.p90());
  w.kv("p99", h.p99());
  w.kv("max", h.max);
  w.end_object();
}

}  // namespace

double RunReport::steady_iteration_seconds(std::size_t warmup) const {
  // With no post-warmup iterations there is no steady state to report;
  // 0.0 keeps ratios of such runs visibly degenerate instead of silently
  // averaging warmup noise.
  if (iteration_seconds.size() <= warmup) return 0.0;
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = warmup; i < iteration_seconds.size(); ++i) {
    sum += iteration_seconds[i];
    ++n;
  }
  return sum / static_cast<double>(n);
}

void RunReport::write_json(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::vector<std::pair<std::string, std::uint64_t>>& gauges,
    const std::vector<std::pair<std::string, trace::HistogramSnapshot>>&
        histograms) const {
  const bool v3 = multi_tier();
  const bool v4 = serving();
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("schema_version", std::uint64_t{v4 ? 4u : (v3 ? 3u : 2u)});
  w.kv("workload", workload);
  w.kv("policy", policy);
  w.kv("strategy", strategy);
  if (v3) {
    w.key("tiers").begin_array();
    for (const std::string& t : tier_names) w.value(t);
    w.end_array();
  }
  w.kv("compute_seconds", compute_seconds);
  w.kv("overhead_seconds", overhead_seconds);
  w.kv("decision_seconds", decision_seconds);
  w.kv("total_seconds", total_seconds());
  w.kv("steady_iteration_seconds", steady_iteration_seconds());
  w.kv("migrations", migrations);
  w.kv("bytes_moved", bytes_moved);
  w.kv("copy_busy_seconds", copy_busy_seconds);
  w.kv("stall_seconds", stall_seconds);
  w.kv("overlap_fraction", overlap_fraction());
  w.kv("runtime_cost_fraction", runtime_cost_fraction());
  w.kv("reprofiles", static_cast<std::uint64_t>(reprofiles));
  w.kv("failed_no_space", failed_no_space);
  w.kv("migrations_retried", migrations_retried);
  w.kv("migrations_aborted", migrations_aborted);
  w.kv("migrations_cancelled", migrations_cancelled);
  w.kv("plans_degraded", plans_degraded);
  w.kv("faults_injected", faults_injected);
  w.kv("verified", verified);
  w.kv("tasks_executed", tasks_executed);
  if (trace_dropped_events != 0) {
    w.kv("trace_dropped_events", trace_dropped_events);
  }
  w.key("iteration_seconds").begin_array();
  for (const double s : iteration_seconds) w.value(s);
  w.end_array();
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) w.kv(name, value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : gauges) w.kv(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms) {
    w.key(name).begin_object();
    w.kv("count", h.count());
    w.kv("sum", h.sum);
    w.kv("p50", h.p50());
    w.kv("p90", h.p90());
    w.kv("p99", h.p99());
    w.kv("max", h.max);
    w.end_object();
  }
  w.end_object();
  if (v4) {
    w.key("tenants").begin_array();
    for (const TenantReportRow& t : tenants) {
      w.begin_object();
      w.kv("name", t.name);
      w.kv("priority", t.priority);
      w.kv("quota_bytes", t.quota_bytes);
      w.kv("fast_bytes", t.fast_bytes);
      w.kv("total_bytes", t.total_bytes);
      w.kv("requests", t.requests);
      w.kv("dropped", t.dropped);
      write_digest(w, "request_latency", t.request_latency);
      write_digest(w, "queue_wait", t.queue_wait);
      write_digest(w, "service_time", t.service_time);
      w.end_object();
    }
    w.end_array();
  }
  w.key("attribution").begin_array();
  for (const AttributionRow& r : attribution) {
    w.begin_object();
    w.kv("task_type", r.task_type);
    w.kv("object", r.object);
    w.kv("tasks", r.tasks);
    if (v3) {
      w.key("tier_loads").begin_array();
      for (std::size_t t = 0; t < tier_names.size(); ++t) {
        w.value(tier_count(r.tier_loads, t));
      }
      w.end_array();
      w.key("tier_stores").begin_array();
      for (std::size_t t = 0; t < tier_names.size(); ++t) {
        w.value(tier_count(r.tier_stores, t));
      }
      w.end_array();
    } else {
      w.kv("dram_loads", tier_count(r.tier_loads, 0));
      w.kv("dram_stores", tier_count(r.tier_stores, 0));
      w.kv("nvm_loads", tier_count(r.tier_loads, 1));
      w.kv("nvm_stores", tier_count(r.tier_stores, 1));
    }
    w.kv("sampled_loads", r.sampled_loads);
    w.kv("sampled_stores", r.sampled_stores);
    w.kv("est_loads", r.est_loads);
    w.kv("est_stores", r.est_stores);
    w.end_object();
  }
  w.end_array();
  w.key("objects").begin_array();
  for (const ObjectMigrationRow& r : objects) {
    w.begin_object();
    w.kv("object", r.object);
    w.kv("promotions", r.promotions);
    w.kv("evictions", r.evictions);
    w.kv("bytes_promoted", r.bytes_promoted);
    w.kv("bytes_evicted", r.bytes_evicted);
    w.kv("copies_hidden", r.copies_hidden);
    if (v3) {
      w.key("flows").begin_array();
      for (const TierFlowRow& f : r.flows) {
        w.begin_object();
        w.kv("src", std::uint64_t{f.src});
        w.kv("dst", std::uint64_t{f.dst});
        w.kv("src_tier", f.src < tier_names.size() ? tier_names[f.src] : "");
        w.kv("dst_tier", f.dst < tier_names.size() ? tier_names[f.dst] : "");
        w.kv("copies", f.copies);
        w.kv("bytes", f.bytes);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void RunReport::write_explain_json(std::ostream& os) const {
  const bool v3 = multi_tier();
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("schema_version", std::uint64_t{v3 ? 3u : 2u});
  w.kv("workload", workload);
  w.kv("policy", policy);
  w.kv("strategy", strategy);
  if (v3) {
    w.key("tiers").begin_array();
    for (const std::string& t : tier_names) w.value(t);
    w.end_array();
  }
  w.key("plans").begin_array();
  for (const PlanRecord& p : plans) {
    w.begin_object();
    w.kv("iteration", static_cast<std::uint64_t>(p.iteration));
    w.kv("replan_round", static_cast<std::uint64_t>(
                             p.replan_round < 0 ? 0 : p.replan_round));
    w.kv("strategy", p.strategy);
    w.kv("local_gain", p.local_gain);
    w.kv("global_gain", p.global_gain);
    w.kv("predicted_gain", p.predicted_gain);
    w.kv("schedule_copies", static_cast<std::uint64_t>(p.schedule_copies));
    w.key("pinned_nvm").begin_array();
    for (const std::string& name : p.pinned_nvm) w.value(name);
    w.end_array();
    w.key("candidates").begin_array();
    for (const PlanCandidate& c : p.candidates) {
      w.begin_object();
      w.kv("object", c.object);
      w.kv("object_id", c.object_id);
      w.kv("chunk", static_cast<std::uint64_t>(c.chunk));
      w.kv("pass", c.pass);
      w.kv("group", static_cast<std::uint64_t>(c.group));
      if (v3 && c.tier >= 0) {
        w.kv("tier", static_cast<std::uint64_t>(c.tier));
      }
      w.kv("sensitivity", c.sensitivity);
      w.kv("benefit", c.benefit);
      w.kv("cost", c.cost);
      w.kv("extra_cost", c.extra_cost);
      w.kv("value", c.value);
      w.kv("bytes", c.bytes);
      w.kv("accepted", c.accepted);
      w.kv("reason", c.reason);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace tahoe::core
