// Scenario-grid sweep driver: fans (workload x policy x NVM spec) cells
// across child processes and merges their outputs into one comparison
// artifact.
//
//   tools/tahoe_sweep --out sweep.json [--workloads cg,mg]
//       [--policies tahoe,static-dram,static-nvm] [--nvm-specs bw:0.5]
//       [--scale test|bench] [--dram-mib 256] [--jobs 4] [--keep-cells]
//       [--deterministic] [--telemetry-interval 0.01]
//       [--slo-rules "counter:...  < 5"]
//
// The parent checks every workload, policy and NVM spec with the code a
// cell hands it to, and rejects a bad grid before it forks any child.
// Each cell forks a child that runs one (workload, policy, nvm) scenario
// through the bench runners with latency histograms enabled, appending its
// RunReport JSON line (the same layout every bench emits) to a
// per-cell file plus a full-bucket snapshot of every histogram — the
// report JSON carries only count/percentile digests, which cannot be
// merged, so the buckets travel separately. The parent throttles to
// --jobs concurrent children, then merges:
//
//   * every cell's report line, spliced verbatim under "runs"
//     (consumers see exactly what the bench wrote);
//   * histograms, bucket-wise across all cells (HistogramSnapshot::merge
//     semantics), re-digested after the merge;
//   * a "comparison" section normalizing each policy's steady-state
//     iteration time against the cell's baseline policy (static-dram when
//     present, else the fastest policy in the cell).
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "common/flags.hpp"
#include "trace/analyze.hpp"
#include "trace/counters.hpp"
#include "trace/flight.hpp"
#include "trace/histogram.hpp"
#include "trace/json.hpp"
#include "trace/telemetry.hpp"

namespace {

using namespace tahoe;

struct Cell {
  std::string workload;
  std::string policy;
  std::string nvm_spec;
  std::string report_path;
  std::string hist_path;
  std::string telemetry_path;  ///< cell-prefixed telemetry JSONL ("" = off)
  std::string flight_path;     ///< cell-prefixed flight dump destination
};

/// Per-cell telemetry settings forwarded into the children.
struct SweepTelemetry {
  double interval = 0.0;  ///< sampling cadence in seconds; 0 disables
  std::vector<trace::SloRule> rules;  ///< --slo-rules, parsed by the parent
  bool enabled() const { return interval > 0.0; }
};

/// How a cell runs its workload under one policy.
using PolicyRunner = core::RunReport (*)(const std::string& workload,
                                         const bench::BenchConfig& config);

/// The runner for a --policies entry, or nullptr for an unknown policy.
PolicyRunner policy_runner(const std::string& policy) {
  if (policy == "tahoe") {
    return [](const std::string& w, const bench::BenchConfig& c) {
      return bench::run_tahoe(w, c);
    };
  }
  if (policy == "static-dram") {
    return [](const std::string& w, const bench::BenchConfig& c) {
      return bench::run_static(w, c, bench::fastest_tier(c));
    };
  }
  if (policy == "static-nvm") {
    return [](const std::string& w, const bench::BenchConfig& c) {
      return bench::run_static(w, c, bench::capacity_tier(c));
    };
  }
  if (policy == "xmem") return &bench::run_xmem;
  if (policy == "reactive") return &bench::run_reactive;
  return nullptr;
}

/// True when `consume()` returns without a contract error.
template <typename Consume>
bool consumes(Consume consume) {
  try {
    consume();
    return true;
  } catch (const ContractError&) {
    return false;
  }
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// The entries of the comma-separated grid flag `name`. A flag that names
/// none, or an entry that `accepts` refuses, is a bad command line.
template <typename Accepts>
std::vector<std::string> grid_axis(const Flags& flags, const std::string& name,
                                   const std::string& entry_kind,
                                   Accepts accepts) {
  std::vector<std::string> entries = split_csv(flags.get_string(name));
  flags.require_flag(!entries.empty(), "--" + name + " names no entry");
  for (const std::string& entry : entries) {
    flags.require_flag(accepts(entry), entry_kind + " '" + entry + "' in --" +
                                           name);
  }
  return entries;
}

/// Child body: run one scenario, write the cell's artifacts, never return.
[[noreturn]] void run_cell(const Cell& cell, const bench::BenchConfig& base,
                           const SweepTelemetry& tele) {
  trace::set_histograms_enabled(true);
  if (tele.enabled()) {
    trace::FlightRecorder::Config fc;
    fc.out_path = cell.flight_path;
    trace::flight().configure(fc);
    trace::TelemetryConfig tc;
    tc.out_path = cell.telemetry_path;
    tc.interval_seconds = tele.interval;
    tc.rules = tele.rules;
    trace::telemetry().configure(tc);
  }
  bench::BenchConfig config = base;
  config.nvm_spec = cell.nvm_spec;
  config.report_json = cell.report_path;
  config.attribution = true;

  // The runner appends the cell's report to report_path itself.
  (void)policy_runner(cell.policy)(cell.workload, config);
  // _Exit skips destructors: flush the telemetry stream by hand.
  trace::telemetry().shutdown();

  std::ofstream hist(cell.hist_path);
  trace::JsonWriter w(hist);
  w.begin_object().key("histograms").begin_object();
  for (const auto& [name, snap] :
       trace::global_counters().snapshot_histograms()) {
    w.key(name).begin_object();
    w.kv("sum", snap.sum).kv("max", snap.max);
    w.key("buckets").begin_array();
    for (const std::uint64_t b : snap.buckets) w.value(b);
    w.end_array().end_object();
  }
  w.end_object().end_object();
  hist << "\n";
  // _Exit skips stream destructors, so flush explicitly before leaving.
  hist.close();
  if (!hist) std::_Exit(3);
  std::_Exit(0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// First non-empty line of a JSONL file (each cell runs one scenario, so
/// its report file holds exactly one line).
std::string first_line(const std::string& text) {
  const std::size_t end = text.find('\n');
  std::string line =
      end == std::string::npos ? text : text.substr(0, end);
  return line;
}

trace::HistogramSnapshot parse_snapshot(const trace::JsonValue& v) {
  trace::HistogramSnapshot snap;
  snap.sum = static_cast<std::uint64_t>(v.at("sum").number);
  snap.max = static_cast<std::uint64_t>(v.at("max").number);
  const auto& buckets = v.at("buckets").array;
  for (std::size_t b = 0;
       b < buckets.size() && b < trace::HistogramSnapshot::kBuckets; ++b) {
    snap.buckets[b] = static_cast<std::uint64_t>(buckets[b].number);
  }
  return snap;
}

}  // namespace

int main(int argc, char** argv) try {
  Flags flags;
  flags.define_string("out", "sweep.json", "merged comparison artifact path");
  flags.define_string("workloads", "cg,mg", "comma-separated workload names");
  flags.define_string("policies", "tahoe,static-dram,static-nvm",
                      "comma-separated policies (tahoe, static-dram, "
                      "static-nvm, xmem, reactive)");
  flags.define_string("nvm-specs", "bw:0.5",
                      "comma-separated NVM specs (bw:<f> with 0 < f <= 1, "
                      "lat:<m> with m >= 1, or optane)");
  flags.define_string("scale", "test", "problem size: test or bench");
  flags.define_int("dram-mib", 256, "DRAM capacity in MiB");
  flags.define_int("jobs", 4, "max concurrent child processes");
  flags.define_bool("keep-cells", false,
                    "keep the per-cell intermediate files");
  flags.define_bool("deterministic", false,
                    "zero out every cell's wall-clock-measured planning cost "
                    "so same-flag sweeps write byte-identical artifacts");
  flags.define_double("telemetry-interval", 0.0,
                      "per-cell telemetry cadence in virtual seconds: 0 "
                      "(telemetry off) or a positive finite number");
  flags.define_string("slo-rules", "",
                      "comma-separated SLO watchdog rules evaluated inside "
                      "every cell (see --telemetry docs)");
  flags.parse(argc, argv);

  const std::string out = flags.get_string("out");
  SweepTelemetry tele;
  tele.interval = flags.get_double("telemetry-interval");
  flags.require_flag(
      tele.interval == 0.0 ||
          (std::isfinite(tele.interval) && tele.interval > 0.0),
      "--telemetry-interval must be 0 (off) or a positive finite number");
  try {
    tele.rules = trace::parse_slo_rules(flags.get_string("slo-rules"));
  } catch (const ContractError& e) {
    flags.require_flag(false, std::string("--slo-rules: ") + e.what());
  }
  bench::BenchConfig base;
  base.dram_capacity = bench::dram_capacity_from_flags(flags);
  base.scale = workloads::parse_scale(flags.get_string("scale"));
  base.deterministic = flags.get_bool("deterministic");
  // reap_one() cannot make room for a child when none is running.
  const std::uint64_t jobs = flags.get_uint("jobs");
  if (jobs < 1) {
    throw FlagError("flag --jobs must be at least 1", flags.usage(argv[0]));
  }

  const std::vector<std::string> apps =
      grid_axis(flags, "workloads", "unknown workload",
                [&](const std::string& w) {
                  return consumes(
                      [&] { (void)workloads::make_workload(w, base.scale); });
                });
  const std::vector<std::string> policies =
      grid_axis(flags, "policies", "unknown policy",
                [](const std::string& p) {
                  return policy_runner(p) != nullptr;
                });
  const std::vector<std::string> nvm_specs =
      grid_axis(flags, "nvm-specs", "invalid NVM spec",
                [&](const std::string& spec) {
                  bench::BenchConfig config = base;
                  config.nvm_spec = spec;
                  return consumes([&] { (void)bench::make_machine(config); });
                });

  std::vector<Cell> cells;
  for (const std::string& nvm : nvm_specs) {
    for (const std::string& w : apps) {
      for (const std::string& p : policies) {
        Cell cell;
        cell.workload = w;
        cell.policy = p;
        cell.nvm_spec = nvm;
        const std::string stem = out + ".cell" + std::to_string(cells.size());
        cell.report_path = stem + ".report.jsonl";
        cell.hist_path = stem + ".hist.json";
        if (tele.enabled()) {
          cell.telemetry_path = stem + ".telemetry.jsonl";
          cell.flight_path = stem + ".flight.json";
        }
        cells.push_back(std::move(cell));
      }
    }
  }
  // Fan out, at most --jobs children in flight.
  std::map<pid_t, std::size_t> running;
  std::vector<bool> cell_failed(cells.size(), false);
  const auto reap_one = [&] {
    int status = 0;
    const pid_t pid = wait(&status);
    if (pid < 0) return;
    const auto it = running.find(pid);
    if (it == running.end()) return;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      const Cell& c = cells[it->second];
      std::cerr << "cell failed: " << c.workload << "/" << c.policy << "/"
                << c.nvm_spec << "\n";
      cell_failed[it->second] = true;
    }
    running.erase(it);
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    while (running.size() >= jobs) reap_one();
    const pid_t pid = fork();
    if (pid < 0) {
      std::cerr << "fork failed\n";
      return 1;
    }
    if (pid == 0) run_cell(cells[i], base, tele);  // never returns
    running.emplace(pid, i);
  }
  while (!running.empty()) reap_one();

  // Merge: raw report lines, bucket-wise histograms, and the parsed values
  // the comparison section needs. A failed cell (non-zero child exit, or a
  // child that died before writing its report) must not be silently
  // dropped — and the partial artifacts it may have left behind must not
  // be merged as if the cell succeeded. It contributes an explicit
  // `"failed":true` run entry instead, the artifact carries a top-level
  // failed_cells count, and the sweep still exits non-zero.
  struct Run {
    std::size_t cell = 0;
    double steady_seconds = 0.0;
  };
  std::vector<std::string> raw_runs;
  std::vector<Run> runs;
  std::map<std::string, trace::HistogramSnapshot> merged;
  std::size_t failed_cells = 0;
  std::size_t slo_breached_cells = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string line = first_line(read_file(cells[i].report_path));
    if (line.empty() && !cell_failed[i]) {
      std::cerr << "cell produced no report: " << cells[i].report_path
                << "\n";
      cell_failed[i] = true;
    }
    if (cell_failed[i]) {
      ++failed_cells;
      std::ostringstream failed_entry;
      {
        trace::JsonWriter w(failed_entry);
        w.begin_object()
            .kv("workload", cells[i].workload)
            .kv("policy", cells[i].policy)
            .kv("nvm", cells[i].nvm_spec)
            .kv("failed", true)
            .end_object();
      }
      raw_runs.push_back(failed_entry.str());
    } else {
      const trace::JsonValue report = trace::parse_json(line);
      Run run;
      run.cell = i;
      run.steady_seconds = report.at("steady_iteration_seconds").number;
      runs.push_back(run);
      raw_runs.push_back(line);

      const trace::JsonValue hist =
          trace::parse_json(read_file(cells[i].hist_path));
      for (const auto& [name, snap] : hist.at("histograms").object) {
        merged[name].merge(parse_snapshot(snap));
      }

      // Telemetry and flight artifacts stay behind as cell-prefixed files
      // regardless of --keep-cells — they are the sweep's observability
      // record, not intermediates. Here we only scan for SLO breaches.
      if (tele.enabled()) {
        try {
          const trace::Timeline tl =
              trace::analyze_timeline(read_file(cells[i].telemetry_path));
          if (!tl.breaches.empty()) ++slo_breached_cells;
        } catch (const std::exception& e) {
          std::cerr << "cell telemetry unreadable: "
                    << cells[i].telemetry_path << ": " << e.what() << "\n";
        }
      }
    }
    if (!flags.get_bool("keep-cells")) {
      std::remove(cells[i].report_path.c_str());
      std::remove(cells[i].hist_path.c_str());
    }
  }

  std::ofstream os(out);
  os << "{\"schema\":\"tahoe_sweep_v1\",\"cells\":" << cells.size()
     << ",\"failed_cells\":" << failed_cells
     << ",\"slo_breached_cells\":" << slo_breached_cells << ",\"runs\":[";
  for (std::size_t i = 0; i < raw_runs.size(); ++i) {
    if (i != 0) os << ",";
    os << raw_runs[i];
  }
  os << "],";

  // JsonWriter emits one complete value per instance, so each merged
  // section gets its own writer spliced in behind a hand-written key.
  os << "\"histograms\":";
  {
    trace::JsonWriter w(os);
    w.begin_object();
    for (const auto& [name, snap] : merged) {
      w.key(name).begin_object();
      w.kv("count", snap.count())
          .kv("sum", snap.sum)
          .kv("max", snap.max)
          .kv("p50", snap.p50())
          .kv("p90", snap.p90())
          .kv("p99", snap.p99());
      w.key("buckets").begin_array();
      for (const std::uint64_t b : snap.buckets) w.value(b);
      w.end_array().end_object();
    }
    w.end_object();
  }

  // Comparison: group runs by (workload, nvm); normalize against
  // static-dram when the cell grid includes it, else the fastest run.
  os << ",\"comparison\":";
  {
    trace::JsonWriter w(os);
    w.begin_array();
    std::map<std::pair<std::string, std::string>, std::vector<Run>> groups;
    for (const Run& r : runs) {
      groups[{cells[r.cell].workload, cells[r.cell].nvm_spec}].push_back(r);
    }
    for (const auto& [key, group] : groups) {
      double baseline = 0.0;
      std::string baseline_policy;
      for (const Run& r : group) {
        if (cells[r.cell].policy == "static-dram") {
          baseline = r.steady_seconds;
          baseline_policy = "static-dram";
        }
      }
      if (baseline <= 0.0) {
        for (const Run& r : group) {
          if (baseline <= 0.0 || r.steady_seconds < baseline) {
            baseline = r.steady_seconds;
            baseline_policy = cells[r.cell].policy;
          }
        }
      }
      w.begin_object()
          .kv("workload", key.first)
          .kv("nvm", key.second)
          .kv("baseline_policy", baseline_policy);
      w.key("rows").begin_array();
      for (const Run& r : group) {
        w.begin_object()
            .kv("policy", cells[r.cell].policy)
            .kv("steady_seconds", r.steady_seconds)
            .kv("normalized",
                baseline > 0.0 ? r.steady_seconds / baseline : 0.0)
            .end_object();
      }
      w.end_array().end_object();
    }
    w.end_array();
  }
  os << "}\n";
  if (!os) {
    std::cerr << "failed writing " << out << "\n";
    return 1;
  }
  std::cout << "sweep: " << cells.size() << " cells";
  if (failed_cells != 0) std::cout << " (" << failed_cells << " failed)";
  if (slo_breached_cells != 0) {
    std::cout << " (" << slo_breached_cells << " SLO-breached)";
  }
  std::cout << " -> " << out << "\n";
  return failed_cells == 0 ? 0 : 1;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
