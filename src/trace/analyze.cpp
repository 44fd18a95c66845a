#include "trace/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/table.hpp"

namespace tahoe::trace {
namespace {

constexpr double kMicros = 1e6;

struct Span {
  std::uint64_t track = 0;
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  const JsonValue* args = nullptr;

  double end() const noexcept { return ts + dur; }
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The one way this file turns a JSON number into an unsigned integer:
/// a negative, fractional, non-finite or out-of-range value is malformed
/// input (casting it would be undefined), so it throws.
std::uint64_t to_u64(const JsonValue& v, const std::string& field) {
  const double d = v.number;
  if (!(d >= 0.0 && d < 18446744073709551616.0 && d == std::floor(d))) {
    std::ostringstream msg;
    msg << field << ": " << d << " is not an unsigned integer";
    throw std::runtime_error(msg.str());
  }
  return static_cast<std::uint64_t>(d);
}

/// `obj[key]` read through to_u64; 0 when absent or not a number.
std::uint64_t u64_or(const JsonValue& obj, const std::string& key) {
  if (!obj.has(key) || !obj.at(key).is_number()) return 0;
  return to_u64(obj.at(key), key);
}

std::uint64_t arg_u64(const Span& s, const char* key) {
  if (s.args == nullptr || !s.args->is_object()) return 0;
  return u64_or(*s.args, key);
}

bool has_arg(const Span& s, const char* key) {
  return s.args != nullptr && s.args->is_object() && s.args->has(key);
}

std::string str_or(const JsonValue& obj, const char* key,
                   const std::string& def = "") {
  if (!obj.has(key)) return def;
  const JsonValue& v = obj.at(key);
  return v.is_string() ? v.string : def;
}

double num_or(const JsonValue& obj, const char* key) {
  if (!obj.has(key)) return 0.0;
  const JsonValue& v = obj.at(key);
  return v.is_number() ? v.number : 0.0;
}

}  // namespace

Analysis analyze(const JsonValue& trace_doc, const JsonValue* report,
                 const JsonValue* explain) {
  Analysis a;

  if (trace_doc.has("tahoe") && trace_doc.at("tahoe").is_object()) {
    const JsonValue& meta = trace_doc.at("tahoe");
    a.schema_version = u64_or(meta, "schema_version");
    a.dropped_events = u64_or(meta, "dropped_events");
  }

  // ---- collect spans -------------------------------------------------
  std::vector<Span> groups;
  std::vector<Span> tasks;
  std::vector<Span> stalls;
  std::vector<Span> copies;
  std::map<std::uint64_t, std::string> track_labels;
  bool any_span = false;
  double t_min = 0.0, t_max = 0.0;

  if (trace_doc.has("traceEvents") && trace_doc.at("traceEvents").is_array()) {
    for (const JsonValue& ev : trace_doc.at("traceEvents").array) {
      if (!ev.is_object()) continue;
      const std::string ph = str_or(ev, "ph");
      const std::uint64_t tid = u64_or(ev, "tid");
      if (ph == "M") {
        if (str_or(ev, "name") == "thread_name" && ev.has("args")) {
          track_labels[tid] = str_or(ev.at("args"), "name");
        }
        continue;
      }
      if (ph != "X") continue;  // instants/counters carry no duration
      Span s;
      s.track = tid;
      s.name = str_or(ev, "name");
      s.ts = num_or(ev, "ts") / kMicros;
      s.dur = num_or(ev, "dur") / kMicros;
      s.args = ev.has("args") ? &ev.at("args") : nullptr;
      if (!any_span || s.ts < t_min) t_min = s.ts;
      if (!any_span || s.end() > t_max) t_max = s.end();
      any_span = true;

      if (starts_with(s.name, "group ")) {
        groups.push_back(std::move(s));
      } else if (s.name == "migration-stall") {
        stalls.push_back(std::move(s));
      } else if (starts_with(s.name, "migrate") &&
                 s.name.find("rejected") == std::string::npos) {
        copies.push_back(std::move(s));
      } else if (has_arg(s, "task")) {
        tasks.push_back(std::move(s));
      }
      // Other spans ("profile", custom) don't enter the accounting.
    }
  }

  a.start_seconds = any_span ? t_min : 0.0;
  a.end_seconds = any_span ? t_max : 0.0;
  a.makespan_seconds = a.end_seconds - a.start_seconds;
  a.group_spans = groups.size();
  a.task_spans = tasks.size();

  // ---- data movement -------------------------------------------------
  for (const Span& c : copies) {
    a.copy_busy_seconds += c.dur;
    a.bytes_moved += arg_u64(c, "bytes");
  }
  a.migrations = copies.size();
  for (const Span& s : stalls) a.stall_seconds += s.dur;
  if (a.copy_busy_seconds > 0.0) {
    const double overlapped = a.copy_busy_seconds - a.stall_seconds;
    a.overlap_efficiency =
        overlapped > 0.0 ? overlapped / a.copy_busy_seconds : 0.0;
  }

  // ---- critical path -------------------------------------------------
  // Groups run serially (the phase protocol barriers between them), so the
  // longest task inside each group span chains into the path; exposed
  // migration stalls sit between groups and add directly.
  std::sort(groups.begin(), groups.end(),
            [](const Span& x, const Span& y) { return x.ts < y.ts; });
  for (const Span& g : groups) {
    double longest = 0.0;
    for (const Span& t : tasks) {
      if (t.ts >= g.ts && t.ts < g.end()) longest = std::max(longest, t.dur);
    }
    a.critical_path_seconds += longest;
  }
  if (groups.empty() && !tasks.empty()) {
    // Ungrouped trace: fall back to the longest task as the floor.
    double longest = 0.0;
    for (const Span& t : tasks) longest = std::max(longest, t.dur);
    a.critical_path_seconds = longest;
  }
  a.critical_path_seconds += a.stall_seconds;
  if (a.makespan_seconds > 0.0) {
    a.critical_path_fraction = a.critical_path_seconds / a.makespan_seconds;
  }

  // ---- per-worker utilization ----------------------------------------
  std::map<std::uint64_t, WorkerUtilization> lanes;
  for (const Span& t : tasks) {
    WorkerUtilization& w = lanes[t.track];
    w.track = t.track;
    ++w.tasks;
    w.busy_seconds += t.dur;
  }
  for (auto& [track, w] : lanes) {
    const auto it = track_labels.find(track);
    w.name = it != track_labels.end() ? it->second
                                      : "track " + std::to_string(track);
    if (a.makespan_seconds > 0.0) {
      w.utilization = w.busy_seconds / a.makespan_seconds;
    }
    a.workers.push_back(std::move(w));
  }

  // ---- report echoes -------------------------------------------------
  if (report != nullptr && report->is_object()) {
    a.has_report = true;
    a.report_schema_version = u64_or(*report, "schema_version");
    a.workload = str_or(*report, "workload");
    a.policy = str_or(*report, "policy");
    a.strategy = str_or(*report, "strategy");
    a.report_overlap_fraction = num_or(*report, "overlap_fraction");
    if (report->has("tiers") && report->at("tiers").is_array()) {
      for (const JsonValue& t : report->at("tiers").array) {
        if (t.is_string()) a.tier_names.push_back(t.string);
      }
    }
    if (report->has("tenants") && report->at("tenants").is_array()) {
      const auto digest_u64 = [](const JsonValue& obj, const char* digest,
                                 const char* field) -> std::uint64_t {
        if (!obj.has(digest) || !obj.at(digest).is_object()) return 0;
        return u64_or(obj.at(digest), field);
      };
      for (const JsonValue& t : report->at("tenants").array) {
        if (!t.is_object()) continue;
        TenantAnalysisRow row;
        row.name = str_or(t, "name");
        row.priority = num_or(t, "priority");
        row.quota_bytes = u64_or(t, "quota_bytes");
        row.fast_bytes = u64_or(t, "fast_bytes");
        row.total_bytes = u64_or(t, "total_bytes");
        row.requests = u64_or(t, "requests");
        row.dropped = u64_or(t, "dropped");
        row.latency_p50_ns = digest_u64(t, "request_latency", "p50");
        row.latency_p99_ns = digest_u64(t, "request_latency", "p99");
        row.queue_p50_ns = digest_u64(t, "queue_wait", "p50");
        row.queue_p99_ns = digest_u64(t, "queue_wait", "p99");
        row.service_p50_ns = digest_u64(t, "service_time", "p50");
        row.service_p99_ns = digest_u64(t, "service_time", "p99");
        a.tenant_rows.push_back(std::move(row));
      }
    }
  }

  // ---- placement rationale (final plan) ------------------------------
  if (explain != nullptr && explain->is_object() && explain->has("plans") &&
      explain->at("plans").is_array() &&
      !explain->at("plans").array.empty()) {
    a.has_explain = true;
    if (a.strategy.empty()) a.strategy = str_or(*explain, "strategy");
    if (a.workload.empty()) a.workload = str_or(*explain, "workload");
    if (a.policy.empty()) a.policy = str_or(*explain, "policy");
    if (a.report_schema_version == 0) {
      a.report_schema_version = u64_or(*explain, "schema_version");
    }
    const std::size_t num_tiers =
        explain->has("tiers") && explain->at("tiers").is_array()
            ? explain->at("tiers").array.size()
            : 0;
    if (a.tier_names.empty() && num_tiers > 0) {
      for (const JsonValue& t : explain->at("tiers").array) {
        if (t.is_string()) a.tier_names.push_back(t.string);
      }
    }
    const JsonValue& plan = explain->at("plans").array.back();
    a.local_gain = num_or(plan, "local_gain");
    a.global_gain = num_or(plan, "global_gain");
    a.predicted_gain = num_or(plan, "predicted_gain");
    if (plan.has("candidates") && plan.at("candidates").is_array()) {
      for (const JsonValue& c : plan.at("candidates").array) {
        if (!c.is_object()) continue;
        RationaleRow row;
        row.object = str_or(c, "object");
        row.chunk = u64_or(c, "chunk");
        row.pass = str_or(c, "pass");
        row.group = u64_or(c, "group");
        row.sensitivity = str_or(c, "sensitivity");
        row.benefit = num_or(c, "benefit");
        row.cost = num_or(c, "cost");
        row.extra_cost = num_or(c, "extra_cost");
        row.value = num_or(c, "value");
        row.bytes = u64_or(c, "bytes");
        // Pinned candidates carry no tier and read as 0; a tier must index
        // the document's "tiers".
        row.tier = u64_or(c, "tier");
        if (c.has("tier") && row.tier >= num_tiers) {
          throw std::runtime_error(
              "candidate tier " + std::to_string(row.tier) +
              " is not one of the document's " + std::to_string(num_tiers) +
              " tiers");
        }
        row.accepted = c.has("accepted") && c.at("accepted").boolean;
        row.reason = str_or(c, "reason");
        a.rationale.push_back(std::move(row));
      }
    }
    // Planned per-tier occupancy: distinct accepted units of the winning
    // pass (falling back to every accepted row when no pass matches the
    // strategy, e.g. older documents without a pass tag).
    std::set<std::tuple<std::string, std::uint64_t, std::uint64_t>> seen;
    bool strategy_matched = false;
    for (const RationaleRow& r : a.rationale) {
      if (r.accepted && r.pass == a.strategy) {
        strategy_matched = true;
        break;
      }
    }
    for (const RationaleRow& r : a.rationale) {
      if (!r.accepted) continue;
      if (strategy_matched && r.pass != a.strategy) continue;
      if (!seen.insert({r.object, r.chunk, r.tier}).second) continue;
      if (a.planned_tier_bytes.size() <= r.tier) {
        a.planned_tier_bytes.resize(r.tier + 1, 0);
      }
      a.planned_tier_bytes[r.tier] += r.bytes;
    }
  }

  return a;
}

void write_analysis_json(std::ostream& os, const Analysis& a) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema_version", a.schema_version);
  w.kv("dropped_events", a.dropped_events);
  w.kv("makespan_seconds", a.makespan_seconds);
  w.kv("critical_path_seconds", a.critical_path_seconds);
  w.kv("critical_path_fraction", a.critical_path_fraction);
  w.kv("copy_busy_seconds", a.copy_busy_seconds);
  w.kv("stall_seconds", a.stall_seconds);
  w.kv("overlap_efficiency", a.overlap_efficiency);
  w.kv("migrations", a.migrations);
  w.kv("bytes_moved", a.bytes_moved);
  w.kv("group_spans", a.group_spans);
  w.kv("task_spans", a.task_spans);
  w.key("workers").begin_array();
  for (const WorkerUtilization& u : a.workers) {
    w.begin_object();
    w.kv("track", u.track);
    w.kv("name", u.name);
    w.kv("tasks", u.tasks);
    w.kv("busy_seconds", u.busy_seconds);
    w.kv("utilization", u.utilization);
    w.end_object();
  }
  w.end_array();
  if (a.has_report) {
    w.key("report").begin_object();
    w.kv("schema_version", a.report_schema_version);
    w.kv("workload", a.workload);
    w.kv("policy", a.policy);
    w.kv("strategy", a.strategy);
    w.kv("overlap_fraction", a.report_overlap_fraction);
    if (!a.tier_names.empty()) {
      w.key("tiers").begin_array();
      for (const std::string& n : a.tier_names) w.value(n);
      w.end_array();
    }
    // Emitted only for serving reports, so analyses of other runs stay
    // byte-identical to what they were before tenancy.
    if (!a.tenant_rows.empty()) {
      w.key("tenants").begin_array();
      for (const TenantAnalysisRow& t : a.tenant_rows) {
        w.begin_object();
        w.kv("name", t.name);
        w.kv("priority", t.priority);
        w.kv("quota_bytes", t.quota_bytes);
        w.kv("fast_bytes", t.fast_bytes);
        w.kv("total_bytes", t.total_bytes);
        w.kv("requests", t.requests);
        w.kv("dropped", t.dropped);
        w.kv("latency_p50_ns", t.latency_p50_ns);
        w.kv("latency_p99_ns", t.latency_p99_ns);
        w.kv("queue_p50_ns", t.queue_p50_ns);
        w.kv("queue_p99_ns", t.queue_p99_ns);
        w.kv("service_p50_ns", t.service_p50_ns);
        w.kv("service_p99_ns", t.service_p99_ns);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  if (a.has_explain) {
    w.key("plan").begin_object();
    w.kv("strategy", a.strategy);
    w.kv("local_gain", a.local_gain);
    w.kv("global_gain", a.global_gain);
    w.kv("predicted_gain", a.predicted_gain);
    w.key("tier_occupancy").begin_array();
    for (std::size_t t = 0; t < a.planned_tier_bytes.size(); ++t) {
      w.begin_object();
      w.kv("tier", static_cast<std::uint64_t>(t));
      if (t < a.tier_names.size()) w.kv("name", a.tier_names[t]);
      w.kv("bytes", a.planned_tier_bytes[t]);
      w.end_object();
    }
    w.end_array();
    w.key("rationale").begin_array();
    for (const RationaleRow& r : a.rationale) {
      w.begin_object();
      w.kv("object", r.object);
      w.kv("chunk", r.chunk);
      w.kv("pass", r.pass);
      w.kv("group", r.group);
      w.kv("tier", r.tier);
      w.kv("sensitivity", r.sensitivity);
      w.kv("benefit", r.benefit);
      w.kv("cost", r.cost);
      w.kv("extra_cost", r.extra_cost);
      w.kv("value", r.value);
      w.kv("bytes", r.bytes);
      w.kv("accepted", r.accepted);
      w.kv("reason", r.reason);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  os << '\n';
}

void write_analysis_tables(std::ostream& os, const Analysis& a) {
  {
    Table t({"metric", "value"});
    if (a.has_report) {
      t.add_row({"workload", a.workload});
      t.add_row({"policy", a.policy});
    }
    if (!a.strategy.empty()) t.add_row({"strategy", a.strategy});
    t.add_row({"makespan (s)", Table::num(a.makespan_seconds, 6)});
    t.add_row({"critical path (s)", Table::num(a.critical_path_seconds, 6)});
    t.add_row({"critical path frac", Table::num(a.critical_path_fraction, 4)});
    t.add_row({"copy busy (s)", Table::num(a.copy_busy_seconds, 6)});
    t.add_row({"stall (s)", Table::num(a.stall_seconds, 6)});
    t.add_row({"overlap efficiency", Table::num(a.overlap_efficiency, 4)});
    t.add_row({"migrations", std::to_string(a.migrations)});
    t.add_row({"bytes moved", std::to_string(a.bytes_moved)});
    t.add_row({"group spans", std::to_string(a.group_spans)});
    t.add_row({"task spans", std::to_string(a.task_spans)});
    t.add_row({"dropped events", std::to_string(a.dropped_events)});
    t.print(os);
  }
  if (!a.workers.empty()) {
    os << "\nWorker utilization\n";
    Table t({"lane", "tasks", "busy (s)", "utilization"});
    for (const WorkerUtilization& u : a.workers) {
      t.add_row({u.name, std::to_string(u.tasks),
                 Table::num(u.busy_seconds, 6), Table::num(u.utilization, 4)});
    }
    t.print(os);
  }
  if (!a.tenant_rows.empty()) {
    os << "\nTenants (serving report)\n";
    Table t({"tenant", "prio", "quota MiB", "fast MiB", "total MiB", "reqs",
             "queued", "lat p50 ms", "lat p99 ms", "wait p99 ms",
             "svc p99 ms"});
    const auto mib = [](std::uint64_t bytes) {
      return Table::num(static_cast<double>(bytes) / (1024.0 * 1024.0));
    };
    const auto ms = [](std::uint64_t ns) {
      return Table::num(static_cast<double>(ns) / 1e6, 3);
    };
    for (const TenantAnalysisRow& r : a.tenant_rows) {
      t.add_row({r.name, Table::num(r.priority), mib(r.quota_bytes),
                 mib(r.fast_bytes), mib(r.total_bytes),
                 std::to_string(r.requests), std::to_string(r.dropped),
                 ms(r.latency_p50_ns), ms(r.latency_p99_ns),
                 ms(r.queue_p99_ns), ms(r.service_p99_ns)});
    }
    t.print(os);
  }
  if (a.has_explain) {
    os << "\nPlacement rationale (final plan: strategy=" << a.strategy
       << ", local gain " << Table::num(a.local_gain, 6) << " s, global gain "
       << Table::num(a.global_gain, 6) << " s)\n";
    Table t({"object", "chunk", "pass", "group", "tier", "sensitivity",
             "benefit", "cost", "extra", "value", "bytes", "verdict"});
    const auto tier_label = [&a](std::uint64_t tier) {
      return tier < a.tier_names.size() ? a.tier_names[tier]
                                        : std::to_string(tier);
    };
    for (const RationaleRow& r : a.rationale) {
      t.add_row({r.object, std::to_string(r.chunk), r.pass,
                 std::to_string(r.group), tier_label(r.tier), r.sensitivity,
                 Table::num(r.benefit, 6), Table::num(r.cost, 6),
                 Table::num(r.extra_cost, 6), Table::num(r.value, 6),
                 std::to_string(r.bytes),
                 r.accepted ? "accepted" : r.reason});
    }
    t.print(os);
    if (!a.planned_tier_bytes.empty()) {
      os << "\nPlanned tier occupancy (accepted units of the winning "
            "pass)\n";
      Table occ({"tier", "name", "bytes"});
      for (std::size_t tier = 0; tier < a.planned_tier_bytes.size(); ++tier) {
        occ.add_row({std::to_string(tier), tier_label(tier),
                     std::to_string(a.planned_tier_bytes[tier])});
      }
      occ.print(os);
    }
  }
}

// ---- telemetry timeline ------------------------------------------------

namespace {

double num_f64(const JsonValue& doc, const std::string& key) {
  return doc.has(key) ? doc.at(key).number : 0.0;
}

}  // namespace

Timeline analyze_timeline(const std::string& jsonl_text) {
  Timeline tl;
  std::istringstream ss(jsonl_text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(ss, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const std::exception& e) {
      throw std::runtime_error("telemetry line " + std::to_string(line_no) +
                               ": " + e.what());
    }
    if (!doc.is_object() || !doc.has("type")) continue;
    const std::string& type = doc.at("type").string;
    if (type == "phase") {
      TimelinePhase phase;
      phase.seq = u64_or(doc, "seq");
      if (doc.has("label")) phase.label = doc.at("label").string;
      tl.phases.push_back(std::move(phase));
    } else if (type == "interval") {
      TimelineInterval row;
      row.seq = u64_or(doc, "seq");
      row.t = num_f64(doc, "t");
      row.dt = num_f64(doc, "dt");
      if (doc.has("counters")) {
        for (const auto& [name, cell] : doc.at("counters").object) {
          const std::uint64_t delta = u64_or(cell, "delta");
          if (name == "sim.tasks_executed" || name == "executor.tasks") {
            row.tasks_delta += delta;
          } else if (starts_with(name, "migrate.bytes.")) {
            row.bytes_delta += delta;
          }
        }
      }
      if (row.dt > 0.0) {
        row.tasks_rate = static_cast<double>(row.tasks_delta) / row.dt;
        row.bytes_rate = static_cast<double>(row.bytes_delta) / row.dt;
      }
      tl.total_tasks += row.tasks_delta;
      tl.total_bytes += row.bytes_delta;
      tl.duration_seconds = std::max(tl.duration_seconds, row.t);
      tl.rows.push_back(row);
    } else if (type == "breach") {
      TimelineBreach breach;
      breach.seq = u64_or(doc, "seq");
      breach.t = num_f64(doc, "t");
      if (doc.has("kind")) breach.kind = doc.at("kind").string;
      if (doc.has("rule")) breach.rule = doc.at("rule").string;
      breach.observed = num_f64(doc, "observed");
      breach.limit = num_f64(doc, "limit");
      breach.intervals = u64_or(doc, "intervals");
      // Breach lines follow the interval that triggered them (same seq).
      if (!tl.rows.empty() && tl.rows.back().seq == breach.seq) {
        ++tl.rows.back().breaches;
      }
      tl.breaches.push_back(std::move(breach));
    }
  }
  return tl;
}

void write_timeline_json(std::ostream& os, const Timeline& tl) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "tahoe_timeline_v1");
  w.kv("intervals", static_cast<std::uint64_t>(tl.rows.size()));
  w.kv("duration_seconds", tl.duration_seconds);
  w.kv("total_tasks", tl.total_tasks);
  w.kv("total_bytes", tl.total_bytes);
  w.key("phases").begin_array();
  for (const TimelinePhase& p : tl.phases) {
    w.begin_object();
    w.kv("seq", p.seq);
    w.kv("label", p.label);
    w.end_object();
  }
  w.end_array();
  w.key("breaches").begin_array();
  for (const TimelineBreach& b : tl.breaches) {
    w.begin_object();
    w.kv("seq", b.seq);
    w.kv("t", b.t);
    w.kv("kind", b.kind);
    if (!b.rule.empty()) {
      w.kv("rule", b.rule);
      w.kv("observed", b.observed);
      w.kv("limit", b.limit);
    }
    if (b.intervals != 0) w.kv("intervals", b.intervals);
    w.end_object();
  }
  w.end_array();
  w.key("rows").begin_array();
  for (const TimelineInterval& r : tl.rows) {
    w.begin_object();
    w.kv("seq", r.seq);
    w.kv("t", r.t);
    w.kv("dt", r.dt);
    w.kv("tasks_delta", r.tasks_delta);
    w.kv("tasks_rate", r.tasks_rate);
    w.kv("bytes_delta", r.bytes_delta);
    w.kv("bytes_rate", r.bytes_rate);
    w.kv("breaches", r.breaches);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_timeline_table(std::ostream& os, const Timeline& tl) {
  {
    Table t({"metric", "value"});
    t.add_row({"intervals", std::to_string(tl.rows.size())});
    t.add_row({"duration (s)", Table::num(tl.duration_seconds, 4)});
    t.add_row({"phases", std::to_string(tl.phases.size())});
    t.add_row({"breaches", std::to_string(tl.breaches.size())});
    t.add_row({"total tasks", std::to_string(tl.total_tasks)});
    t.add_row({"total bytes moved", std::to_string(tl.total_bytes)});
    t.print(os);
  }
  if (!tl.rows.empty()) {
    os << "\nInterval rates\n";
    Table t({"seq", "t (s)", "tasks/s", "MiB/s", "events"});
    std::size_t next_phase = 0;
    for (const TimelineInterval& r : tl.rows) {
      // A phase marker with seq S precedes the interval that carries S.
      std::string events;
      while (next_phase < tl.phases.size() &&
             tl.phases[next_phase].seq <= r.seq) {
        if (!events.empty()) events += ", ";
        events += "| phase: " + tl.phases[next_phase].label;
        ++next_phase;
      }
      if (r.breaches != 0) {
        if (!events.empty()) events += ", ";
        events += "BREACH x" + std::to_string(r.breaches);
      }
      t.add_row({std::to_string(r.seq), Table::num(r.t, 4),
                 Table::num(r.tasks_rate, 1),
                 Table::num(r.bytes_rate / (1024.0 * 1024.0), 2), events});
    }
    t.print(os);
    for (; next_phase < tl.phases.size(); ++next_phase) {
      os << "(trailing phase: " << tl.phases[next_phase].label << ")\n";
    }
  }
  if (!tl.breaches.empty()) {
    os << "\nBreaches\n";
    Table t({"seq", "t (s)", "kind", "rule", "observed", "limit"});
    for (const TimelineBreach& b : tl.breaches) {
      t.add_row({std::to_string(b.seq), Table::num(b.t, 4), b.kind,
                 b.kind == "stall"
                     ? std::to_string(b.intervals) + " zero-progress intervals"
                     : b.rule,
                 Table::num(b.observed, 3), Table::num(b.limit, 3)});
    }
    t.print(os);
  }
}

// ---- segment stats -----------------------------------------------------

namespace {

constexpr const char* kArenaPrefix = "hms.segment.arena.";

std::uint64_t metric_u64(const JsonValue& v, const std::string& name) {
  return v.is_number() ? to_u64(v, name) : 0;
}

SegmentArenaRow& arena_row(SegmentStats& s, const std::string& name) {
  for (SegmentArenaRow& row : s.arenas) {
    if (row.name == name) return row;
  }
  s.arenas.push_back(SegmentArenaRow{name, 0, 0});
  return s.arenas.back();
}

}  // namespace

SegmentStats analyze_segment_stats(const JsonValue& report) {
  SegmentStats s;
  if (report.has("counters") && report.at("counters").is_object()) {
    for (const auto& [name, v] : report.at("counters").object) {
      if (name == "hms.segment.allocs") {
        s.allocs = metric_u64(v, name);
        s.present = true;
      } else if (name == "hms.segment.frees") {
        s.frees = metric_u64(v, name);
        s.present = true;
      }
    }
  }
  if (report.has("gauges") && report.at("gauges").is_object()) {
    for (const auto& [name, v] : report.at("gauges").object) {
      if (!starts_with(name, "hms.segment.")) continue;
      s.present = true;
      if (name == "hms.segment.slots_live") {
        s.slots_live = metric_u64(v, name);
      } else if (name == "hms.segment.slot_capacity") {
        s.slot_capacity = metric_u64(v, name);
      } else if (name == "hms.segment.bytes_used") {
        s.bytes_used = metric_u64(v, name);
      } else if (name == "hms.segment.bytes_capacity") {
        s.bytes_capacity = metric_u64(v, name);
      } else if (name == "hms.segment.freelist_blocks") {
        s.freelist_blocks = metric_u64(v, name);
      } else if (name == "hms.segment.freelist_bytes") {
        s.freelist_bytes = metric_u64(v, name);
      } else if (starts_with(name, kArenaPrefix)) {
        // hms.segment.arena.<name>.<metric>; arena names contain no dots.
        const std::string tail = name.substr(std::strlen(kArenaPrefix));
        const std::size_t dot = tail.rfind('.');
        if (dot == std::string::npos || dot == 0) continue;
        const std::string arena = tail.substr(0, dot);
        const std::string metric = tail.substr(dot + 1);
        if (metric == "meta_bytes") {
          arena_row(s, arena).meta_bytes = metric_u64(v, name);
        } else if (metric == "free_ranges") {
          arena_row(s, arena).free_ranges = metric_u64(v, name);
        }
      }
    }
  }
  return s;
}

void write_segment_stats_json(std::ostream& os, const SegmentStats& s) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "tahoe_segment_stats_v1");
  w.kv("present", s.present);
  w.kv("allocs", s.allocs);
  w.kv("frees", s.frees);
  w.kv("slots_live", s.slots_live);
  w.kv("slot_capacity", s.slot_capacity);
  w.kv("bytes_used", s.bytes_used);
  w.kv("bytes_capacity", s.bytes_capacity);
  w.kv("occupancy", s.occupancy());
  w.kv("freelist_blocks", s.freelist_blocks);
  w.kv("freelist_bytes", s.freelist_bytes);
  w.key("arenas").begin_array();
  for (const SegmentArenaRow& row : s.arenas) {
    w.begin_object();
    w.kv("name", row.name);
    w.kv("meta_bytes", row.meta_bytes);
    w.kv("free_ranges", row.free_ranges);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_segment_stats_table(std::ostream& os, const SegmentStats& s) {
  if (!s.present) {
    os << "(no hms.segment.* metrics in this report — run with a "
          "segment-hosted registry)\n";
    return;
  }
  {
    Table t({"metric", "value"});
    t.add_row({"segment allocs", std::to_string(s.allocs)});
    t.add_row({"segment frees", std::to_string(s.frees)});
    t.add_row({"live slots", std::to_string(s.slots_live) + " / " +
                                 std::to_string(s.slot_capacity)});
    t.add_row({"metadata bytes", std::to_string(s.bytes_used) + " / " +
                                     std::to_string(s.bytes_capacity)});
    t.add_row({"occupancy", Table::num(s.occupancy() * 100.0, 3) + " %"});
    t.add_row({"freelist blocks", std::to_string(s.freelist_blocks)});
    t.add_row({"freelist bytes", std::to_string(s.freelist_bytes)});
    t.print(os);
  }
  if (!s.arenas.empty()) {
    os << "\nArena metadata\n";
    Table t({"arena", "meta bytes", "free ranges"});
    for (const SegmentArenaRow& row : s.arenas) {
      t.add_row({row.name, std::to_string(row.meta_bytes),
                 std::to_string(row.free_ranges)});
    }
    t.print(os);
  }
}

}  // namespace tahoe::trace
