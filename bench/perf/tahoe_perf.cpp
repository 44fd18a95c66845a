// tahoe_perf: the perf-ledger harness — host cost and simulated outcomes of
// four workloads, end to end and layer by layer (see README.md).
//
//   tahoe_perf [--check] [--quick] [--seed N] [--seconds S] [--trace 0|1]
//              [--results-out FILE] [--spans-out FILE]
//       Runs paper2t, cxl4t, real3w and serve3t, each in its own child
//       process (one after another, so peak RSS is per workload), prints
//       every metric with its unit and sample count, checks the outputs and
//       writes one results JSON. --check exits 1 when a check fails.
//   tahoe_perf --workload NAME [...]
//       Runs one workload in-process. The last stdout line is
//       {"correct", "attempted", "failed", "metrics"}: the end-to-end
//       metrics untraced, the per-layer metrics with --trace 1.
//   tahoe_perf --compare PARENT CHANGE
//       One row per (workload, metric) of two results files (or
//       comma-separated lists of them) with a verdict against the bounds.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "common/assert.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "perf.hpp"
#include "spans.hpp"
#include "speed.hpp"
#include "trace/json.hpp"

namespace tahoe::perf {
namespace {

/// The end-to-end metrics every workload reports on its contract line
/// (BENCHMARK.json's "end_to_end" list).
const std::vector<std::string> kContractMetrics = {
    "setup_s", "host_ms_p50", "host_ms_p90", "peak_rss_mb"};

/// A pass or set-up run scaled by a reference more than this share above
/// the median of its kind was measured while the machine was visibly
/// disturbed; the scaled metrics leave it out. Over two sets of ten 20-s
/// paper2t runs under heavy neighbour load this kept 73 % of the passes and
/// cut the spread of their p90s from 6.2-9.1 % to 1.4-2.6 %.
constexpr double kDisturbed = 1.05;

/// Measured times in ms of one kind (set-up runs or passes): raw, scaled,
/// and the slowest reference each was scaled by.
struct HostTimes {
  std::vector<double> wall;
  std::vector<double> scaled;
  std::vector<double> reference;

  void add(const LapTimer& timer) {
    wall.push_back(timer.wall_ms());
    scaled.push_back(timer.scaled_ms());
    reference.push_back(timer.reference_ms());
  }

  /// Scaled times of the measurements the machine did not disturb; at
  /// least the half with a reference at or below the median.
  std::vector<double> undisturbed() const {
    const double limit = kDisturbed * percentile(reference, 0.5);
    std::vector<double> out;
    for (std::size_t i = 0; i < wall.size(); ++i) {
      if (reference[i] <= limit) out.push_back(scaled[i]);
    }
    return out;
  }
};

std::vector<double> ms_to_s(std::vector<double> ms) {
  for (double& x : ms) x *= 1e-3;
  return ms;
}

/// Regression bound of a host metric in --compare, as a share of the
/// parent's median: BENCHMARK.json's bounds, applied to the raw companions
/// of the scaled times too. Metrics without one (reference_ms) are shown
/// for information. Simulated metrics must match to kSimulatedTolerance
/// relative, and fail_pct may not increase at all.
constexpr double kSimulatedTolerance = 1e-6;

std::optional<double> bound_of(const std::string& metric) {
  if (metric == "setup_s" || metric == "setup_wall_s" ||
      metric == "host_ms_p50" || metric == "wall_ms_p50" ||
      metric == "host_ms_p90" || metric == "wall_ms_p90") {
    return 0.25;
  }
  if (metric == "peak_rss_mb" || metric == "runtime_cost_pct") return 0.10;
  return std::nullopt;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.5g", v);
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

Metric host_metric(const std::string& unit, double value,
                   std::vector<double> samples) {
  return Metric{unit, Kind::kHost, value, std::move(samples)};
}

// ---- spans -> layer self time --------------------------------------------

/// Self time of every layer over this workload's traced passes, as % of
/// their total. "pass" and "runtime.*" spans are glue: their self time is
/// the runtime.self_pct residual.
std::map<std::string, double> layer_self_pct(const std::string& workload) {
  const std::vector<Span>& spans = recorder().spans();
  std::map<std::string, double> self;
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.workload != workload || s.pass < 0) continue;
    std::string layer = s.name.substr(0, s.name.find('.'));
    if (layer == "pass") {
      total += s.end - s.start;
      layer = "runtime";
    }
    self[layer] += recorder().self_seconds(i);
  }
  for (auto& [layer, seconds] : self) {
    seconds = total > 0.0 ? 100.0 * seconds / total : 0.0;
  }
  return self;
}

// ---- one workload, in this process ----------------------------------------

struct Run {
  WorkloadResult result;
  std::vector<std::pair<std::string, Metric>> layers;  ///< --trace 1 only
  std::map<std::string, double> layer_pct;             ///< --trace 1 only
};

Run run_workload(const std::string& name, const RunOptions& o, bool traced) {
  const std::unique_ptr<Workload> w = make_workload(name, o);
  TAHOE_REQUIRE(w != nullptr, "unknown workload '" + name + "'");
  Run run;
  WorkloadResult& r = run.result;
  r.name = name;

  w->setup();
  w->warm_up();

  // Every measured pass is followed by two set-up runs, of which the second
  // is timed; setup_s is the median of the timed runs. Timed back to back
  // before the passes instead, paper2t's 20-us set-up ran 1.8x slower in
  // some processes than in others, and the first run after a pass slowed
  // with machine load far more than the reference did (real3w: 1.75x
  // against 1.2x). The reference runs before the untimed run: right before
  // the timed one, its allocations made paper2t's set-up 8x slower.
  //
  // Traced runs alternate spanned and plain passes, so the difference
  // between the two medians is the span recorder's own overhead. A spanned
  // pass is a single lap, so no reference kernel runs inside its spans.
  // Traced runs give the passes half of --seconds; the per-layer probes
  // that follow take about as long again.
  LapTimer timer(w->threads(), w->profile());
  LapTimer setup_timer(1, Profile::kAlloc);
  const Lap lap = [&timer] { timer.lap(); };
  const Lap no_lap = [] {};
  HostTimes setup;
  HostTimes plain;
  HostTimes spanned;
  const double measured = traced ? o.seconds / 2 : o.seconds;
  const double begin = now_seconds();
  for (int pass = 0;
       pass < (traced ? 2 : 1) || now_seconds() - begin < measured; ++pass) {
    const bool spans_on = traced && pass % 2 == 0;
    recorder().set_enabled(spans_on);
    recorder().set_context(name, pass);
    timer.measure_reference();
    timer.start();
    {
      const ScopedSpan span("pass");
      w->pass(pass, spans_on ? no_lap : lap);
    }
    timer.lap();
    recorder().set_enabled(false);
    (spans_on ? spanned : plain).add(timer);
    setup_timer.measure_reference();
    w->setup();
    setup_timer.start();
    w->setup();
    setup_timer.lap();
    setup.add(setup_timer);
  }
  const double rss = peak_rss_mb();
  w->finish(r);

  const std::vector<double> host_ms = plain.undisturbed();
  const std::vector<double> setup_s = ms_to_s(setup.undisturbed());
  r.metrics["setup_s"] = host_metric("s", percentile(setup_s, 0.5), setup_s);
  const std::vector<double> setup_wall_s = ms_to_s(setup.wall);
  r.metrics["setup_wall_s"] =
      host_metric("s", percentile(setup_wall_s, 0.5), setup_wall_s);
  r.metrics["host_ms_p50"] =
      host_metric("ms", percentile(host_ms, 0.5), host_ms);
  r.metrics["host_ms_p90"] =
      host_metric("ms", percentile(host_ms, 0.9), host_ms);
  r.metrics["wall_ms_p50"] =
      host_metric("ms", percentile(plain.wall, 0.5), plain.wall);
  r.metrics["wall_ms_p90"] =
      host_metric("ms", percentile(plain.wall, 0.9), plain.wall);
  r.metrics["reference_ms"] =
      host_metric("ms", percentile(plain.reference, 0.5), plain.reference);
  const double disturbed =
      100.0 * (1.0 - static_cast<double>(host_ms.size()) /
                         static_cast<double>(plain.wall.size()));
  r.metrics["disturbed_pct"] = host_metric("%", disturbed, {disturbed});
  r.metrics["peak_rss_mb"] = host_metric("MiB", rss, {rss});
  if (r.metrics.count("fail_pct") == 0) {
    const double pct = r.attempted == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted);
    r.metrics["fail_pct"] = host_metric("%", pct, {pct});
  }

  if (traced) {
    run.layer_pct = layer_self_pct(name);
    recorder().set_enabled(true);
    run.layers = layer_metrics(o);
    recorder().set_enabled(false);
    // Spanned and plain passes alternate, so they see the same machine.
    const double overhead =
        100.0 * (percentile(spanned.wall, 0.5) / percentile(plain.wall, 0.5) -
                 1.0);
    run.layers.emplace_back("trace.span_overhead_pct",
                            host_metric("%", overhead, {overhead}));
    for (const char* layer :
         {"core", "task", "hms", "serve", "workloads", "runtime"}) {
      const double pct = run.layer_pct[layer];
      run.layers.emplace_back(std::string(layer) + ".self_pct",
                              host_metric("%", pct, {pct}));
    }
  }
  return run;
}

/// Simulated outcomes of the default seed must equal reference.json.
void check_reference(const RunOptions& o, WorkloadResult& r) {
  if (o.seed != kDefaultSeed) return;
  trace::JsonValue ref;
  try {
    std::ifstream is(TAHOE_PERF_REFERENCE);
    std::stringstream ss;
    ss << is.rdbuf();
    ref = trace::parse_json(ss.str());
  } catch (const std::exception& e) {
    r.fail(std::string("cannot read reference values: ") + e.what());
    return;
  }
  if (!ref.has("workloads") || !ref.at("workloads").has(r.name)) {
    r.fail("reference.json has no entry for " + r.name);
    return;
  }
  for (const auto& [metric, expected] : ref.at("workloads").at(r.name).object) {
    const auto it = r.metrics.find(metric);
    if (it == r.metrics.end()) {
      // --quick runs subsets (cxl4t on cg+bt, a two-step serve ladder).
      if (!o.quick) r.fail("simulated " + metric + " was not produced");
      continue;
    }
    if (rel_diff(it->second.value, expected.number) > kSimulatedTolerance) {
      r.fail("behaviour change: simulated " + metric + " = " +
             fmt(it->second.value) + ", reference " + fmt(expected.number));
    }
  }
}

// ---- output ---------------------------------------------------------------

void write_metric(trace::JsonWriter& w, const Metric& m, bool full) {
  w.begin_object().kv("value", m.value).kv("unit", m.unit);
  if (full) {
    w.kv("kind", m.kind == Kind::kSimulated ? "simulated" : "host")
        .kv("n", static_cast<std::uint64_t>(m.samples.size()))
        .kv("q1", percentile(m.samples, 0.25))
        .kv("q3", percentile(m.samples, 0.75));
  }
  w.end_object();
}

/// The full per-workload record the results JSON and --compare use.
void write_record(std::ostream& os, const Run& run, const RunOptions& o,
                  bool traced) {
  const WorkloadResult& r = run.result;
  trace::JsonWriter w(os);
  w.begin_object()
      .kv("workload", r.name)
      .kv("correct", r.correct)
      .kv("attempted", r.attempted)
      .kv("failed", r.failed)
      .kv("seed", o.seed)
      .kv("seconds", o.seconds)
      .kv("traced", traced);
  w.key("problems").begin_array();
  for (const std::string& p : r.problems) w.value(p);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, m] : r.metrics) {
    w.key(name);
    write_metric(w, m, true);
  }
  w.end_object();
  if (traced) {
    w.key("layers").begin_object();
    for (const auto& [name, m] : run.layers) {
      w.key(name);
      write_metric(w, m, true);
    }
    w.end_object();
    w.key("layer_self_pct").begin_object();
    for (const auto& [layer, pct] : run.layer_pct) w.kv(layer, pct);
    w.end_object();
  }
  w.end_object();
}

/// The benchmark contract's result line.
void write_contract_line(std::ostream& os, const Run& run, bool traced) {
  const WorkloadResult& r = run.result;
  trace::JsonWriter w(os);
  w.begin_object()
      .kv("correct", r.correct)
      .kv("attempted", r.attempted)
      .kv("failed", r.failed);
  w.key("metrics").begin_object();
  if (traced) {
    for (const auto& [name, m] : run.layers) {
      w.key(name);
      write_metric(w, m, false);
    }
  } else {
    for (const std::string& name : kContractMetrics) {
      w.key(name);
      write_metric(w, r.metrics.at(name), false);
    }
  }
  w.end_object().end_object();
  os << '\n';
}

void print_run(std::ostream& os, const Run& run, const RunOptions& o,
               bool traced) {
  const WorkloadResult& r = run.result;
  os << "== " << r.name << ": seed " << o.seed << ", "
     << (traced ? o.seconds / 2 : o.seconds) << " s of passes, "
     << r.metrics.at("wall_ms_p50").samples.size()
     << (traced ? " plain passes (+ as many traced), " : " passes, ")
     << r.metrics.at("host_ms_p50").samples.size() << " undisturbed ==\n";
  Table t({"metric", "value", "unit", "n", "q1", "q3", "kind"});
  for (const auto& [name, m] : r.metrics) {
    t.add_row({name, fmt(m.value), m.unit, std::to_string(m.samples.size()),
               fmt(percentile(m.samples, 0.25)),
               fmt(percentile(m.samples, 0.75)),
               m.kind == Kind::kSimulated ? "simulated" : "host"});
  }
  t.print(os);
  for (const std::string& note : r.notes) os << note << '\n';
  if (traced) {
    os << "-- per-layer (traced) --\n";
    Table layers({"metric", "value", "unit", "n"});
    for (const auto& [name, m] : run.layers) {
      layers.add_row(
          {name, fmt(m.value), m.unit, std::to_string(m.samples.size())});
    }
    layers.print(os);
    os << "self time of traced passes by layer:";
    for (const auto& [layer, pct] : run.layer_pct) {
      os << ' ' << layer << ' ' << fmt(pct) << '%';
    }
    os << '\n';
  }
  os << "ops: " << r.attempted << " attempted, " << r.failed << " failed\n";
  if (r.correct) {
    os << "check: ok\n";
  } else {
    for (const std::string& p : r.problems) os << "check FAILED: " << p << '\n';
  }
}

/// Results file: {"schema", "fingerprint", "workloads": {name: record}}.
/// `records` pairs each workload name with its record's JSON text.
void write_results(
    const std::string& path, const RunOptions& o, bool traced,
    const std::vector<std::pair<std::string, std::string>>& records) {
#if defined(__clang__)
  const std::string compiler = std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("GNU ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ofstream os(path);
  os << "{\"schema\":\"tahoe_perf_results_v1\",\"fingerprint\":";
  trace::JsonWriter w(os);
  w.begin_object()
      .kv("commit", TAHOE_PERF_COMMIT)
      .kv("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .kv("compiler", compiler)
      .kv("build_type", TAHOE_PERF_BUILD_TYPE)
      .kv("seed", o.seed)
      .kv("seconds", o.seconds)
      .kv("quick", o.quick)
      .kv("traced", traced)
      .end_object();
  os << ",\"workloads\":{";
  for (std::size_t i = 0; i < records.size(); ++i) {
    os << (i == 0 ? "" : ",") << trace::json_escape(records[i].first) << ':'
       << records[i].second;
  }
  os << "}}\n";
}

// ---- all workloads, one child process each --------------------------------

struct ChildOutput {
  int status = -1;
  std::string record;  ///< the "record " line's JSON
};

/// Run this binary on one workload and pass its human-readable lines
/// through; the record line is captured, the contract line dropped.
ChildOutput run_child(const std::vector<std::string>& args) {
  int fds[2];
  TAHOE_REQUIRE(pipe(fds) == 0, "pipe() failed");
  const pid_t pid = fork();
  TAHOE_REQUIRE(pid >= 0, "fork() failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  ChildOutput child;
  waitpid(pid, &child.status, 0);
  std::istringstream lines(out);
  std::vector<std::string> all;
  for (std::string line; std::getline(lines, line);) all.push_back(line);
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    if (all[i].rfind("record ", 0) == 0) {
      child.record = all[i].substr(7);
    } else {
      std::cout << all[i] << '\n';
    }
  }
  std::cout.flush();
  return child;
}

/// Concatenate the children's Chrome traces into one file.
void merge_spans(const std::vector<std::string>& parts,
                 const std::string& path) {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const std::string& part : parts) {
    std::ifstream is(part);
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    const std::size_t open = text.find('[');
    const std::size_t close_at = text.rfind(']');
    if (open == std::string::npos || close_at == std::string::npos) continue;
    const std::string events = text.substr(open + 1, close_at - open - 1);
    if (events.find_first_not_of(" \n") == std::string::npos) continue;
    os << (first ? "" : ",") << events;
    first = false;
    std::remove(part.c_str());
  }
  os << "]}\n";
}

int run_all(const RunOptions& o, bool traced, bool check,
            std::string results_out, std::string spans_out) {
  if (results_out.empty()) results_out = "tahoe_perf_results.json";
  if (traced && spans_out.empty()) spans_out = "tahoe_perf_spans.json";
  std::ostringstream seconds;
  seconds.precision(17);
  seconds << o.seconds;
  bool all_ok = true;
  std::vector<std::pair<std::string, std::string>> records;
  std::vector<std::string> span_parts;
  for (const std::string& name : workload_names()) {
    std::vector<std::string> args = {"tahoe_perf", "--workload", name,
                                     "--seed", std::to_string(o.seed),
                                     "--seconds", seconds.str(),
                                     "--trace", traced ? "1" : "0"};
    if (o.quick) args.push_back("--quick");
    if (traced) {
      span_parts.push_back(spans_out + "." + name);
      args.insert(args.end(), {"--spans-out", span_parts.back()});
    }
    const ChildOutput child = run_child(args);
    if (child.record.empty() || !WIFEXITED(child.status) ||
        WEXITSTATUS(child.status) != 0) {
      std::cout << "check FAILED: " << name << " child exited with status "
                << child.status << " and no result\n";
      all_ok = false;
      continue;
    }
    all_ok = all_ok &&
             trace::parse_json(child.record).at("correct").boolean;
    records.emplace_back(name, child.record);
  }
  write_results(results_out, o, traced, records);
  std::cout << "results: " << results_out << '\n';
  if (traced) {
    merge_spans(span_parts, spans_out);
    std::cout << "spans: " << spans_out << '\n';
  }
  std::cout << (all_ok ? "all checks ok\n" : "some checks FAILED\n");
  return check && !all_ok ? 1 : 0;
}

// ---- --compare ------------------------------------------------------------

struct Side {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  bool simulated = false;
};

std::vector<trace::JsonValue> load_results(const std::string& list) {
  std::vector<trace::JsonValue> out;
  std::stringstream ss(list);
  for (std::string path; std::getline(ss, path, ',');) {
    std::ifstream is(path);
    TAHOE_REQUIRE(is.good(), "cannot open results file '" + path + "'");
    std::stringstream text;
    text << is.rdbuf();
    out.push_back(trace::parse_json(text.str()));
  }
  return out;
}

/// One side of a (workload, metric) row: the quartiles of the samples
/// behind the metric for a single results file, or of the metric's value
/// across several files.
std::optional<Side> side_of(const std::vector<trace::JsonValue>& files,
                            const std::string& workload,
                            const std::string& metric) {
  std::vector<double> values;
  Side s;
  for (const trace::JsonValue& f : files) {
    if (!f.at("workloads").has(workload)) continue;
    const trace::JsonValue& metrics = f.at("workloads").at(workload).at("metrics");
    if (!metrics.has(metric)) continue;
    const trace::JsonValue& m = metrics.at(metric);
    values.push_back(m.at("value").number);
    s.simulated = m.at("kind").string == "simulated";
    s.q1 = m.at("q1").number;
    s.q3 = m.at("q3").number;
  }
  if (values.empty()) return std::nullopt;
  s.median = percentile(values, 0.5);
  if (values.size() > 1) {
    s.q1 = percentile(values, 0.25);
    s.q3 = percentile(values, 0.75);
  }
  return s;
}

std::string verdict(const std::string& metric, const Side& p, const Side& c) {
  if (p.simulated || c.simulated) {
    return rel_diff(p.median, c.median) <= kSimulatedTolerance
               ? "unchanged"
               : "behaviour change";
  }
  if (metric == "fail_pct") {
    return c.median > p.median ? "worse"
           : c.median < p.median ? "better"
                                 : "unchanged";
  }
  const std::optional<double> bound = bound_of(metric);
  if (!bound) return "info";
  const auto spread = [](const Side& s) {
    return s.median != 0.0 ? (s.q3 - s.q1) / std::fabs(s.median) : 0.0;
  };
  if (std::max(spread(p), spread(c)) > *bound) return "unresolved";
  const double allowed = *bound * std::fabs(p.median);
  if (c.median - p.median > allowed) return "worse";
  if (p.median - c.median > allowed) return "better";
  return "unchanged";
}

int compare(const std::string& parent_list, const std::string& change_list) {
  const std::vector<trace::JsonValue> parent = load_results(parent_list);
  const std::vector<trace::JsonValue> change = load_results(change_list);
  Table t({"workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]",
           "bound", "delta", "verdict"});
  bool regressed = false;
  for (const std::string& workload : workload_names()) {
    std::set<std::string> metrics;
    for (const auto* side : {&parent, &change}) {
      for (const trace::JsonValue& f : *side) {
        if (!f.at("workloads").has(workload)) continue;
        for (const auto& [name, m] :
             f.at("workloads").at(workload).at("metrics").object) {
          metrics.insert(name);
        }
      }
    }
    for (const std::string& metric : metrics) {
      const std::optional<Side> p = side_of(parent, workload, metric);
      const std::optional<Side> c = side_of(change, workload, metric);
      if (!p || !c) {
        t.add_row({workload, metric, p ? fmt(p->median) : "-", "",
                   c ? fmt(c->median) : "-", "", "", "", "missing"});
        continue;
      }
      const std::string v = verdict(metric, *p, *c);
      regressed = regressed || v == "worse" || v == "behaviour change";
      const std::optional<double> b = bound_of(metric);
      const std::string bound = p->simulated          ? "exact"
                                : metric == "fail_pct" ? "no increase"
                                : b ? "+" + fmt(*b * 100.0) + "%"
                                    : "-";
      const double delta =
          p->median != 0.0 ? (c->median / p->median - 1.0) * 100.0 : 0.0;
      t.add_row({workload, metric, fmt(p->median),
                 "[" + fmt(p->q1) + ", " + fmt(p->q3) + "]", fmt(c->median),
                 "[" + fmt(c->q1) + ", " + fmt(c->q3) + "]", bound,
                 fmt(delta) + "%", v});
    }
  }
  t.print(std::cout);
  return regressed ? 1 : 0;
}

}  // namespace
}  // namespace tahoe::perf

int main(int argc, char** argv) {
  using namespace tahoe;
  using namespace tahoe::perf;
  // glibc gives each thread that allocates a malloc arena of its own, and
  // in real3w which of the worker and helper threads frees a migrated chunk
  // first decides whether an arena keeps 24 MiB more: peak RSS came out 149
  // or 174 MiB at random. With one arena it is 158 MiB in every run, at the
  // same pass time.
  mallopt(M_ARENA_MAX, 1);
  // Keep freed memory in the process: malloc maps no block of its own and
  // never trims the heap. Otherwise every large block (chunk payloads, the
  // planner's tables) is a fresh mapping whose pages fault in on first
  // touch, and on a virtual machine a fault costs what the host's load
  // says: page faults were 150 ms of a 550-ms real3w pass and 460 ms of a
  // 2.5-s cxl4t pass, and their cost moved with the neighbours. With the
  // heap kept, a pass after the first takes almost none, and no workload's
  // peak RSS grows (real3w's fell from 154 to 137 MiB).
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Flags flags;
  flags.define_string("workload", "",
                      "run one workload in this process (paper2t, cxl4t, "
                      "real3w, serve3t); empty runs all four");
  flags.define_int("seed", static_cast<std::int64_t>(kDefaultSeed),
                   "workload seed (sampler and arrival streams)");
  flags.define_double("seconds", 0.0,
                      "measured seconds per workload (0: 25, or 0.3 with "
                      "--quick)");
  flags.define_int("trace", 0, "1 = traced run: per-layer metrics + spans");
  flags.define_bool("traced", false, "same as --trace 1");
  flags.define_bool("check", false, "exit 1 when any output check fails");
  flags.define_bool("quick", false,
                    "smoke run: short passes, cxl4t on cg+bt, real3w and "
                    "the serve ladder at small sizes");
  flags.define_bool("compare", false,
                    "compare two results files: --compare PARENT CHANGE");
  flags.define_string("results-out", "", "write the results JSON here");
  flags.define_string("spans-out", "", "write the spans (Chrome JSON) here");
  std::vector<std::string> positional;
  try {
    positional = flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n' << flags.usage(argv[0]);
    return 2;
  }
  if (flags.get_bool("compare")) {
    if (positional.size() != 2) {
      std::cerr << "--compare needs PARENT and CHANGE results files\n";
      return 2;
    }
    return compare(positional[0], positional[1]);
  }
  if (!positional.empty()) {
    std::cerr << "unexpected argument '" << positional.front() << "'\n"
              << flags.usage(argv[0]);
    return 2;
  }

  RunOptions o;
  o.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  o.quick = flags.get_bool("quick");
  o.seconds = flags.get_double("seconds");
  if (o.seconds <= 0.0) o.seconds = o.quick ? 0.3 : 25.0;
  const bool traced = flags.get_int("trace") == 1 || flags.get_bool("traced");
  const bool check = flags.get_bool("check");
  const std::string workload = flags.get_string("workload");
  const std::string results_out = flags.get_string("results-out");
  const std::string spans_out = flags.get_string("spans-out");

  if (workload.empty()) {
    return run_all(o, traced, check, results_out, spans_out);
  }
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    std::cerr << "unknown workload '" << workload << "'\n";
    return 2;
  }
  Run run = run_workload(workload, o, traced);
  check_reference(o, run.result);
  print_run(std::cout, run, o, traced);
  std::ostringstream record;
  write_record(record, run, o, traced);
  if (!results_out.empty()) {
    write_results(results_out, o, traced, {{workload, record.str()}});
  }
  if (!spans_out.empty()) {
    std::ofstream os(spans_out);
    recorder().write_chrome_json(os);
  }
  std::cout << "record " << record.str() << '\n';
  write_contract_line(std::cout, run, traced);
  return check && !run.result.correct ? 1 : 0;
}
