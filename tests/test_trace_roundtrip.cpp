// End-to-end trace round-trip: run the runtime with tracing enabled,
// export Chrome trace_event JSON, parse it back and validate the schema —
// worker tracks, at least one migration span carrying tier/bytes args, and
// planner decision events. Also validates the trace emitted by the real
// `examples/quickstart --trace-out=...` binary when it is available.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "trace/chrome_export.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"

namespace tahoe {
namespace {

// Two-phase app with a footprint larger than DRAM, so the planner must
// schedule real migrations (mirrors examples/quickstart.cpp).
class TwoPhaseApp : public core::Application {
 public:
  std::string name() const override { return "twophase"; }
  std::size_t iterations() const override { return 8; }

  void setup(hms::ObjectRegistry& registry,
             const hms::ChunkingPolicy& chunking) override {
    (void)chunking;
    table_ = registry.create("table", 48 * kMiB, memsim::kNvm);
    index_ = registry.create("index", 24 * kMiB, memsim::kNvm);
  }

  void build_iteration(task::GraphBuilder& builder,
                       std::size_t iteration) override {
    (void)iteration;
    if (builder.keep_previous()) return;
    builder.begin_group("build");
    for (int i = 0; i < 6; ++i) {
      task::Task t;
      t.label = "build";
      t.compute_seconds = 1e-4;
      task::DataAccess a;
      a.object = table_;
      a.mode = task::AccessMode::ReadWrite;
      a.traffic.loads = 750'000;
      a.traffic.stores = 750'000;
      a.traffic.footprint = 8 * kMiB;
      a.traffic.locality = 0.1;
      t.accesses = {a};
      builder.add_task(std::move(t));
    }
    builder.begin_group("apply");
    for (int i = 0; i < 6; ++i) {
      task::Task t;
      t.label = "apply";
      t.compute_seconds = 1e-4;
      task::DataAccess a;
      a.object = index_;
      a.mode = task::AccessMode::Read;
      a.traffic.loads = 125'000;
      a.traffic.footprint = 24 * kMiB;
      a.traffic.dep_frac = 0.9;
      t.accesses = {a};
      builder.add_task(std::move(t));
    }
  }

 private:
  hms::ObjectId table_ = hms::kInvalidObject;
  hms::ObjectId index_ = hms::kInvalidObject;
};

struct TraceSummary {
  int worker_tracks = 0;
  int worker_spans = 0;
  int migration_spans_with_args = 0;
  int planner_decisions = 0;
  int counter_events = 0;
};

/// Parse a Chrome trace document and count the schema features the
/// acceptance criteria require. Fails the current test on malformed JSON.
TraceSummary summarize_chrome_trace(const std::string& text) {
  TraceSummary s;
  const trace::JsonValue doc = trace::parse_json(text);
  EXPECT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.has("traceEvents"));

  // tid -> label, from thread_name metadata.
  std::map<double, std::string> track_label;
  for (const trace::JsonValue& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").string == "M" && ev.at("name").string == "thread_name") {
      track_label[ev.at("tid").number] = ev.at("args").at("name").string;
    }
  }
  for (const auto& [tid, label] : track_label) {
    if (label.rfind("worker", 0) == 0) ++s.worker_tracks;
  }

  for (const trace::JsonValue& ev : doc.at("traceEvents").array) {
    const std::string& ph = ev.at("ph").string;
    if (ph == "M") continue;
    const std::string& name = ev.at("name").string;
    const std::string label = track_label.count(ev.at("tid").number)
                                  ? track_label[ev.at("tid").number]
                                  : "";
    if (ph == "X" && label.rfind("worker", 0) == 0) ++s.worker_spans;
    if (ph == "X" && name.rfind("migrate", 0) == 0) {
      const trace::JsonValue& args = ev.at("args");
      if (args.has("bytes") && args.has("dst_tier") &&
          args.has("src_tier")) {
        ++s.migration_spans_with_args;
      }
    }
    if (ph == "i" && name.rfind("decide", 0) == 0) ++s.planner_decisions;
    if (ph == "C") ++s.counter_events;
  }
  return s;
}

void expect_valid_tahoe_trace(const TraceSummary& s) {
  EXPECT_GE(s.worker_tracks, 1);
  EXPECT_GT(s.worker_spans, 0);
  EXPECT_GE(s.migration_spans_with_args, 1)
      << "no migration span carried tier/bytes args";
  EXPECT_GE(s.planner_decisions, 1) << "no planner decision event";
  EXPECT_GT(s.counter_events, 0);
}

TEST(TraceRoundTrip, SimulatedRunExportsValidChromeTrace) {
  trace::Tracer& tracer = trace::global();
  tracer.drain();  // discard anything earlier tests left behind
  tracer.set_enabled(true);

  memsim::DeviceModel nvm = memsim::devices::nvm_bw_fraction(
      memsim::devices::dram(32 * kMiB), 0.5, 4 * kGiB);
  core::RuntimeConfig config;
  config.machine = memsim::machines::platform_a(nvm, 32 * kMiB);
  config.backing = hms::Backing::Virtual;
  core::Runtime runtime(config);

  TwoPhaseApp app;
  core::TahoePolicy policy(core::calibrate(runtime.machine()).to_constants());
  const core::RunReport report = runtime.run(app, policy);
  tracer.set_enabled(false);
  ASSERT_GT(report.migrations, 0u) << "app too small to trigger migration";

  std::ostringstream os;
  trace::write_chrome_trace(os, tracer.drain(), tracer.track_names());
  const TraceSummary s = summarize_chrome_trace(os.str());
  expect_valid_tahoe_trace(s);
}

#ifdef TAHOE_QUICKSTART_BIN
TEST(TraceRoundTrip, QuickstartBinaryProducesValidTrace) {
  const std::string out = ::testing::TempDir() + "quickstart_trace.json";
  const std::string cmd = std::string(TAHOE_QUICKSTART_BIN) +
                          " --trace-out=" + out + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << "quickstart failed: " << cmd;

  std::ifstream is(out);
  ASSERT_TRUE(is) << "quickstart produced no trace file";
  std::stringstream buf;
  buf << is.rdbuf();
  const TraceSummary s = summarize_chrome_trace(buf.str());
  expect_valid_tahoe_trace(s);
  std::remove(out.c_str());
}
#endif

}  // namespace
}  // namespace tahoe
