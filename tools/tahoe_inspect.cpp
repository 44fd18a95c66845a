// tahoe_inspect: post-run analyzer for Tahoe-TP trace/report artifacts.
//
//   tahoe_inspect --trace=run.trace.json
//                 [--report=run.report.json] [--explain=run.explain.json]
//                 [--format=table|json] [--out=analysis.json]
//   tahoe_inspect --timeline=run.telemetry.jsonl [--format=table|json]
//   tahoe_inspect --report=run.report.json --segment-stats
//                 [--format=table|json]
//
// Loads the Chrome trace (plus optional run report and --explain-out
// documents), computes the DAG critical path, migration-overlap
// efficiency, per-worker utilization and the placement rationale of the
// final plan, and renders them as aligned tables (default) or as one
// deterministic JSON object suitable for golden comparisons.
//
// --timeline mode instead reads a --telemetry-out JSONL stream and renders
// per-interval task/byte rates with phase boundaries and SLO-breach
// markers inline.
//
// --segment-stats mode reads only the report and renders the storage
// layer's hms.segment.* digest: slot-table occupancy, segment metadata
// bytes, allocator freelist levels and per-arena range-list footprints.
//
// Unreadable or malformed input exits 1 with the error on stderr.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/flags.hpp"
#include "trace/analyze.hpp"
#include "trace/json.hpp"

namespace {

std::string read_file(const std::string& path, const char* what) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error(std::string("cannot open ") + what + " file '" +
                             path + "'");
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// Runs `parse` on the file's text, naming the file in any error.
template <class Parse>
auto parse_file(const std::string& path, const char* what, Parse parse) {
  const std::string text = read_file(path, what);
  try {
    return parse(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("failed to parse ") + what + " '" +
                             path + "': " + e.what());
  }
}

tahoe::trace::JsonValue load_json(const std::string& path, const char* what) {
  return parse_file(path, what, tahoe::trace::parse_json);
}

/// Hands `render` the --out file, or stdout when none is given.
template <class Render>
void emit(const std::string& out, Render render) {
  if (out.empty()) {
    render(std::cout);
    return;
  }
  std::ofstream file(out);
  if (!file) throw std::runtime_error("cannot open output file '" + out + "'");
  render(file);
}

}  // namespace

int main(int argc, char** argv) {
  tahoe::Flags flags;
  flags.define_string("trace", "", "Chrome trace JSON (required unless "
                                   "--timeline is given)");
  flags.define_string("report", "", "run report JSON (optional)");
  flags.define_string("explain", "", "planner --explain-out JSON (optional)");
  flags.define_string("timeline", "",
                      "telemetry JSONL stream (--telemetry-out); renders "
                      "interval rates, phases and breach markers instead of "
                      "the trace analysis");
  flags.define_bool("segment-stats", false,
                    "render the hms.segment.* storage-layer digest from "
                    "--report (slot table, metadata bytes, freelists, "
                    "per-arena range lists) instead of the trace analysis");
  flags.define_string("format", "table", "output format: table or json");
  flags.define_string("out", "", "write output to this file instead of stdout");

  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n' << flags.usage(argv[0]);
    return 2;
  }
  const std::string trace_path = flags.get_string("trace");
  const std::string report_path = flags.get_string("report");
  const std::string explain_path = flags.get_string("explain");
  const std::string timeline_path = flags.get_string("timeline");
  const std::string format = flags.get_string("format");
  const std::string out = flags.get_string("out");
  const bool segment_stats = flags.get_bool("segment-stats");
  if (trace_path.empty() && timeline_path.empty() && !segment_stats) {
    std::cerr << "tahoe_inspect: --trace, --timeline or --segment-stats is "
                 "required\n"
              << flags.usage(argv[0]);
    return 2;
  }
  if (format != "table" && format != "json") {
    std::cerr << "tahoe_inspect: --format must be 'table' or 'json'\n";
    return 2;
  }
  if (segment_stats && report_path.empty()) {
    std::cerr << "tahoe_inspect: --segment-stats requires --report\n";
    return 2;
  }
  const bool json = format == "json";

  try {
    if (segment_stats) {
      const tahoe::trace::SegmentStats stats =
          tahoe::trace::analyze_segment_stats(load_json(report_path, "report"));
      emit(out, [&](std::ostream& os) {
        json ? tahoe::trace::write_segment_stats_json(os, stats)
             : tahoe::trace::write_segment_stats_table(os, stats);
      });
      return 0;
    }
    if (!timeline_path.empty()) {
      const tahoe::trace::Timeline timeline = parse_file(
          timeline_path, "timeline", tahoe::trace::analyze_timeline);
      emit(out, [&](std::ostream& os) {
        json ? tahoe::trace::write_timeline_json(os, timeline)
             : tahoe::trace::write_timeline_table(os, timeline);
      });
      return 0;
    }
    const tahoe::trace::JsonValue trace_doc = load_json(trace_path, "trace");
    std::optional<tahoe::trace::JsonValue> report;
    if (!report_path.empty()) report = load_json(report_path, "report");
    std::optional<tahoe::trace::JsonValue> explain;
    if (!explain_path.empty()) explain = load_json(explain_path, "explain");
    const tahoe::trace::Analysis analysis =
        tahoe::trace::analyze(trace_doc, report ? &*report : nullptr,
                              explain ? &*explain : nullptr);
    emit(out, [&](std::ostream& os) {
      json ? tahoe::trace::write_analysis_json(os, analysis)
           : tahoe::trace::write_analysis_tables(os, analysis);
    });
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "tahoe_inspect: " << e.what() << '\n';
    return 1;
  }
}
