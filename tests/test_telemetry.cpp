// Telemetry sampler, SLO watchdog and flight recorder: rule parsing and
// evaluation, registry delta tracking, virtual-clock cadence, breach lines,
// the wall-clock thread, stream byte-reproducibility, the stall detector on
// a wedged simulated run, and the bounded flight rings.
#include "common/assert.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fault.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/planner.hpp"
#include "core/runtime.hpp"
#include "memsim/machine.hpp"
#include "task/sim_executor.hpp"
#include "trace/chrome_export.hpp"
#include "trace/counters.hpp"
#include "trace/flight.hpp"
#include "trace/json.hpp"
#include "trace/telemetry.hpp"
#include "workloads/synthetic.hpp"

namespace tahoe::trace {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

/// Every test reconfigures the process-global sampler; tear it down so the
/// next test (and the rest of the binary) starts disarmed.
class TelemetryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    telemetry().shutdown();
    flight().disarm();
    fault::global().disarm();
  }
};

// ---- SLO rule grammar --------------------------------------------------

TEST(SloRuleParse, CounterDefaultsToRate) {
  const SloRule r = parse_slo_rule("counter:sim.tasks_executed > 1000");
  EXPECT_EQ(r.kind, SloRule::Kind::Counter);
  EXPECT_EQ(r.metric, "sim.tasks_executed");
  EXPECT_EQ(r.stat, "rate");
  EXPECT_EQ(r.op, SloRule::Op::Gt);
  EXPECT_DOUBLE_EQ(r.limit, 1000.0);
}

TEST(SloRuleParse, HistStatAndUnitSuffix) {
  const SloRule r = parse_slo_rule("hist:serve.prod.request_ns.p99 < 250ms");
  EXPECT_EQ(r.kind, SloRule::Kind::Hist);
  // The metric name itself contains dots; only the known stat suffix is
  // split off.
  EXPECT_EQ(r.metric, "serve.prod.request_ns");
  EXPECT_EQ(r.stat, "p99");
  EXPECT_EQ(r.op, SloRule::Op::Lt);
  EXPECT_DOUBLE_EQ(r.limit, 250e6);  // ms -> ns
}

TEST(SloRuleParse, GaugeTwoCharOpsAndDelta) {
  const SloRule g = parse_slo_rule("gauge:migrate.queue_depth <= 8");
  EXPECT_EQ(g.kind, SloRule::Kind::Gauge);
  EXPECT_EQ(g.stat, "level");
  EXPECT_EQ(g.op, SloRule::Op::Le);
  const SloRule c = parse_slo_rule("counter:faults.delta >= 0");
  // ".delta" is a counter stat, not part of the metric name.
  EXPECT_EQ(c.metric, "faults");
  EXPECT_EQ(c.stat, "delta");
  EXPECT_EQ(c.op, SloRule::Op::Ge);
}

TEST(SloRuleParse, CsvListAndEmpty) {
  const std::vector<SloRule> rules = parse_slo_rules(
      "counter:a > 1, hist:b.p50 < 2us");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].metric, "a");
  EXPECT_EQ(rules[1].metric, "b");
  EXPECT_DOUBLE_EQ(rules[1].limit, 2000.0);
  EXPECT_TRUE(parse_slo_rules("").empty());
}

TEST(SloRuleParse, MalformedSpecsThrow) {
  EXPECT_THROW(parse_slo_rule("nokind"), ContractError);
  EXPECT_THROW(parse_slo_rule("widget:a < 1"), ContractError);
  EXPECT_THROW(parse_slo_rule("counter:a ? 1"), ContractError);
  EXPECT_THROW(parse_slo_rule("counter:a < "), ContractError);
  EXPECT_THROW(parse_slo_rule("counter:a < 1parsecs"), ContractError);
}

// A rejection reaches the command line as it is, so it names the rule and
// its defect, never the check's expression or source file.
TEST(SloRuleParse, RejectionsNameOnlyTheRule) {
  for (const char* spec :
       {"nokind", "widget:a < 1", "counter:a ? 1", "counter:a < ",
        "counter:a < 1parsecs", "counter:", "counter: < 1",
        "counter:.rate < 1", "counter:a < x"}) {
    try {
      parse_slo_rule(spec);
      ADD_FAILURE() << spec << " parsed";
    } catch (const ContractError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("SLO rule '" + std::string(spec) + "' ", 0), 0u)
          << what;
      EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
      EXPECT_EQ(what.find("precondition"), std::string::npos) << what;
    }
  }
}

TEST(SloRule, HoldsImplementsAllOps) {
  EXPECT_TRUE(parse_slo_rule("gauge:g < 5").holds(4.0));
  EXPECT_FALSE(parse_slo_rule("gauge:g < 5").holds(5.0));
  EXPECT_TRUE(parse_slo_rule("gauge:g <= 5").holds(5.0));
  EXPECT_TRUE(parse_slo_rule("gauge:g > 5").holds(6.0));
  EXPECT_FALSE(parse_slo_rule("gauge:g >= 5").holds(4.0));
}

TEST(SloRule, ObservedSemanticsOverSample) {
  IntervalSample s;
  s.t = 1.0;
  s.dt = 0.5;
  s.counter_deltas = {{"tasks", 10}};
  s.gauges = {{"depth", 3}};
  HistogramSnapshot lat;
  lat.buckets[Histogram::bucket_of(1000)] = 4;
  lat.sum = 4000;
  lat.max = 1000;
  s.hist_deltas = {{"lat", lat}};

  double observed = 0.0;
  // Counter rate = delta / dt.
  ASSERT_TRUE(slo_observed(parse_slo_rule("counter:tasks > 1"), s, &observed));
  EXPECT_DOUBLE_EQ(observed, 20.0);
  ASSERT_TRUE(
      slo_observed(parse_slo_rule("counter:tasks.delta > 1"), s, &observed));
  EXPECT_DOUBLE_EQ(observed, 10.0);
  // Absent counters evaluate with a zero delta (throughput floors catch
  // quiet intervals).
  ASSERT_TRUE(
      slo_observed(parse_slo_rule("counter:missing > 1"), s, &observed));
  EXPECT_DOUBLE_EQ(observed, 0.0);
  // Gauges are levels; absent gauges are not evaluated.
  ASSERT_TRUE(slo_observed(parse_slo_rule("gauge:depth < 8"), s, &observed));
  EXPECT_DOUBLE_EQ(observed, 3.0);
  EXPECT_FALSE(slo_observed(parse_slo_rule("gauge:missing < 8"), s, &observed));
  // Hist stats read the interval-delta digest; absent hists are skipped.
  ASSERT_TRUE(slo_observed(parse_slo_rule("hist:lat.count > 0"), s, &observed));
  EXPECT_DOUBLE_EQ(observed, 4.0);
  ASSERT_TRUE(slo_observed(parse_slo_rule("hist:lat.mean > 0"), s, &observed));
  EXPECT_DOUBLE_EQ(observed, 1000.0);
  EXPECT_FALSE(slo_observed(parse_slo_rule("hist:none.p99 < 1"), s, &observed));
}

// ---- interval deltas ---------------------------------------------------

TEST(TakeInterval, CountersDeltaGaugesLevelHistsBucketwise) {
  CounterRegistry reg;
  Counter& c = reg.get("c");
  Counter& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.add(5);
  g.set(7);
  h.record(100);

  // Starts the interval from the current values: the next one sees only
  // what is new.
  (void)reg.take_interval(0.0, 0.0);
  c.add(3);
  g.set(4);  // gauge decreased
  h.record(200);
  h.record(300);
  const IntervalSample s = reg.take_interval(1.0, 1.0);
  ASSERT_EQ(s.counter_deltas.size(), 1u);
  EXPECT_EQ(s.counter_deltas[0].first, "c");
  EXPECT_EQ(s.counter_deltas[0].second, 3u);  // not the cumulative 8
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].second, 4u);  // level, decrease is fine
  ASSERT_EQ(s.hist_deltas.size(), 1u);
  EXPECT_EQ(s.hist_deltas[0].second.count(), 2u);  // only the new samples

  // A counter first seen mid-run contributes its full value.
  reg.get("late").add(11);
  const IntervalSample s2 = reg.take_interval(2.0, 1.0);
  ASSERT_EQ(s2.counter_deltas.size(), 1u);
  EXPECT_EQ(s2.counter_deltas[0].first, "late");
  EXPECT_EQ(s2.counter_deltas[0].second, 11u);

  // Registry reset between runs: a counter that shrank restarts — the
  // delta is the new value, never an underflow.
  reg.reset();
  c.add(2);
  const IntervalSample s3 = reg.take_interval(3.0, 1.0);
  ASSERT_EQ(s3.counter_deltas.size(), 1u);
  EXPECT_EQ(s3.counter_deltas[0].first, "c");
  EXPECT_EQ(s3.counter_deltas[0].second, 2u);
}

// ---- sampler cadence ---------------------------------------------------

TEST_F(TelemetryTest, VirtualClockEmitsOneIntervalPerBoundary) {
  const std::string path = "telemetry_cadence.jsonl";
  TelemetryConfig cfg;
  cfg.out_path = path;
  cfg.interval_seconds = 0.5;
  telemetry().configure(cfg);
  ASSERT_TRUE(telemetry().enabled());

  telemetry().begin_run("cadence");
  global_counters().get("cadence.ticks").add(2);
  telemetry().advance_virtual(0.4);  // no boundary crossed yet
  EXPECT_EQ(telemetry().intervals_emitted(), 0u);
  telemetry().advance_virtual(0.6);  // crosses t=0.5
  EXPECT_EQ(telemetry().intervals_emitted(), 1u);
  global_counters().get("cadence.ticks").add(1);
  telemetry().advance_virtual(2.1);  // crosses 1.0, 1.5, 2.0 at once
  EXPECT_EQ(telemetry().intervals_emitted(), 4u);
  telemetry().shutdown();

  const std::vector<std::string> lines = lines_of(read_file(path));
  ASSERT_EQ(lines.size(), 5u);  // phase marker + 4 intervals
  const JsonValue phase = parse_json(lines[0]);
  EXPECT_EQ(phase.at("type").string, "phase");
  EXPECT_EQ(phase.at("label").string, "cadence");
  const JsonValue first = parse_json(lines[1]);
  EXPECT_EQ(first.at("type").string, "interval");
  EXPECT_EQ(static_cast<int>(first.at("seq").number), 0);
  EXPECT_DOUBLE_EQ(first.at("t").number, 0.5);
  EXPECT_DOUBLE_EQ(first.at("dt").number, 0.5);
  EXPECT_DOUBLE_EQ(
      first.at("counters").at("cadence.ticks").at("delta").number, 2.0);
  // Catch-up intervals land exactly on multiples of the cadence.
  const JsonValue last = parse_json(lines[4]);
  EXPECT_DOUBLE_EQ(last.at("t").number, 2.0);
  EXPECT_EQ(static_cast<int>(last.at("seq").number), 3);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, BreachingRuleWritesBreachLinesAndCountsThem) {
  // A gauge above its limit breaches in every interval it stays there:
  // each breach writes one line after its interval and bumps
  // "slo.breaches", which the next interval reports as a delta of 1.
  const std::string path = "telemetry_breach.jsonl";
  Counter& depth = global_counters().gauge("breach.depth");
  Counter& breaches = global_counters().get("slo.breaches");
  depth.set(9);
  TelemetryConfig cfg;
  cfg.out_path = path;
  cfg.interval_seconds = 0.5;
  cfg.rules = parse_slo_rules("gauge:breach.depth < 8");
  telemetry().configure(cfg);
  const std::uint64_t before = breaches.value();
  telemetry().advance_virtual(0.5);
  EXPECT_EQ(breaches.value(), before + 1);
  telemetry().advance_virtual(1.0);
  EXPECT_EQ(breaches.value(), before + 2);
  depth.set(3);  // back under the limit: the rule holds
  telemetry().advance_virtual(1.5);
  EXPECT_EQ(breaches.value(), before + 2);
  telemetry().shutdown();

  const std::vector<std::string> lines = lines_of(read_file(path));
  ASSERT_EQ(lines.size(), 5u);  // interval, breach, interval, breach, interval
  const JsonValue breach = parse_json(lines[1]);
  EXPECT_EQ(breach.at("type").string, "breach");
  EXPECT_EQ(static_cast<int>(breach.at("seq").number), 0);
  EXPECT_DOUBLE_EQ(breach.at("t").number, 0.5);
  EXPECT_EQ(breach.at("kind").string, "slo");
  EXPECT_EQ(breach.at("rule").string, "gauge:breach.depth < 8");
  EXPECT_EQ(breach.at("metric").string, "breach.depth");
  EXPECT_EQ(breach.at("stat").string, "level");
  EXPECT_DOUBLE_EQ(breach.at("observed").number, 9.0);
  EXPECT_DOUBLE_EQ(breach.at("limit").number, 8.0);
  EXPECT_EQ(static_cast<int>(parse_json(lines[3]).at("seq").number), 1);
  // The first interval ran before any breach; the next two each carry
  // the previous interval's one breach.
  const JsonValue first = parse_json(lines[0]);
  EXPECT_EQ(first.at("type").string, "interval");
  EXPECT_FALSE(first.at("counters").has("slo.breaches"));
  for (const std::size_t i : {std::size_t{2}, std::size_t{4}}) {
    const JsonValue next = parse_json(lines[i]);
    EXPECT_EQ(next.at("type").string, "interval");
    EXPECT_DOUBLE_EQ(
        next.at("counters").at("slo.breaches").at("delta").number, 1.0);
  }
  EXPECT_DOUBLE_EQ(
      parse_json(lines[4]).at("gauges").at("breach.depth").number, 3.0);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, WallClockThreadEmitsAndShutdownJoinsIt) {
  const std::string path = "telemetry_wall.jsonl";
  TelemetryConfig cfg;
  cfg.out_path = path;
  cfg.interval_seconds = 1e-3;
  cfg.wall_clock = true;
  telemetry().configure(cfg);
  ASSERT_TRUE(telemetry().enabled());
  telemetry().advance_virtual(5.0);  // the thread owns the clock
  global_counters().get("wall.ticks").add(1);
  // Every interval counted after this read began after the add, so one
  // of them carries it.
  const std::uint64_t seen = telemetry().intervals_emitted();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (telemetry().intervals_emitted() <= seen &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  telemetry().shutdown();
  EXPECT_FALSE(telemetry().enabled());
  const std::uint64_t emitted = telemetry().intervals_emitted();
  ASSERT_GT(emitted, seen);
  // The thread is joined: no tick lands after shutdown() returns.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(telemetry().intervals_emitted(), emitted);

  const std::vector<std::string> lines = lines_of(read_file(path));
  ASSERT_EQ(lines.size(), emitted);
  double ticks = 0.0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const JsonValue v = parse_json(lines[i]);
    EXPECT_EQ(v.at("type").string, "interval");
    EXPECT_EQ(static_cast<std::size_t>(v.at("seq").number), i);
    EXPECT_DOUBLE_EQ(v.at("dt").number, 1e-3);
    EXPECT_DOUBLE_EQ(v.at("t").number, static_cast<double>(i + 1) * 1e-3);
    const JsonValue& counters = v.at("counters");
    if (counters.has("wall.ticks")) {
      ticks += counters.at("wall.ticks").at("delta").number;
    }
  }
  EXPECT_DOUBLE_EQ(ticks, 1.0);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, SeededRunsWriteByteIdenticalStreams) {
  // Two identical simulated runs with a reconfigure between them must
  // produce byte-identical JSONL: the registry keeps accumulating, but the
  // stream carries only interval deltas.
  const auto run_once = [](const std::string& path) {
    TelemetryConfig cfg;
    cfg.out_path = path;
    cfg.interval_seconds = 1e-4;
    telemetry().configure(cfg);
    workloads::StreamApp app({24 * kMiB, 8, 4});
    core::RuntimeConfig c;
    c.machine = memsim::machines::platform_a(
        memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB),
                                         0.5, 4 * kGiB),
        64 * kMiB);
    c.backing = hms::Backing::Virtual;
    core::Runtime rt(c);
    (void)rt.run_static(app, memsim::kNvm);
    telemetry().shutdown();
  };
  run_once("telemetry_det_a.jsonl");
  run_once("telemetry_det_b.jsonl");
  const std::string a = read_file("telemetry_det_a.jsonl");
  const std::string b = read_file("telemetry_det_b.jsonl");
  EXPECT_FALSE(a.empty());
  EXPECT_GT(lines_of(a).size(), 2u);  // phase marker + real intervals
  EXPECT_EQ(a, b);
  std::remove("telemetry_det_a.jsonl");
  std::remove("telemetry_det_b.jsonl");
}

TEST_F(TelemetryTest, ArmedFlightRecorderLosesNoEventFromTheTraceExport) {
  // A sampler whose cadence is shorter than one iteration drains the
  // tracer into the armed flight recorder mid-run; the export must stitch
  // those events back, so the trace holds every task span, exactly the
  // spans of the same run traced with the recorder disarmed.
  using Span = std::tuple<std::string, double, double, double, double>;
  const auto task_spans = [](bool armed) {
    if (armed) {
      FlightRecorder::Config fc;
      fc.out_path = "telemetry_split_flight.json";
      flight().configure(fc);
    }
    TelemetryConfig cfg;
    cfg.out_path = "telemetry_split.jsonl";
    cfg.interval_seconds = 1e-4;
    telemetry().configure(cfg);
    workloads::StreamApp app({24 * kMiB, 8, 4});
    core::RuntimeConfig c;
    c.machine = memsim::machines::platform_a(
        memsim::devices::nvm_bw_fraction(memsim::devices::dram(64 * kMiB),
                                         0.5, 4 * kGiB),
        64 * kMiB);
    c.backing = hms::Backing::Virtual;
    core::Runtime rt(c);
    core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants());
    (void)global().drain();
    global().set_enabled(true);
    const core::RunReport report = rt.run(app, policy);
    global().set_enabled(false);
    telemetry().shutdown();
    EXPECT_LT(cfg.interval_seconds, report.iteration_seconds.front());
    EXPECT_EQ(flight().event_count() > 0, armed);
    const std::string path = "telemetry_split.trace.json";
    EXPECT_TRUE(export_chrome_trace(path));
    flight().disarm();
    const JsonValue doc = parse_json(read_file(path));
    std::remove(path.c_str());
    std::vector<Span> spans;
    for (const JsonValue& ev : doc.at("traceEvents").array) {
      if (ev.at("ph").string != "X" || !ev.at("args").object.count("task")) {
        continue;
      }
      spans.emplace_back(ev.at("name").string, ev.at("ts").number,
                         ev.at("dur").number, ev.at("tid").number,
                         ev.at("args").at("task").number);
    }
    EXPECT_EQ(spans.size(), report.tasks_executed) << "armed " << armed;
    return spans;
  };
  const std::vector<Span> split = task_spans(true);
  const std::vector<Span> whole = task_spans(false);
  EXPECT_EQ(split, whole);
  std::remove("telemetry_split.jsonl");
  std::remove("telemetry_split_flight.json");
}

TEST_F(TelemetryTest, StallDetectorFiresOnWedgedRun) {
  // Group 0 makes progress, then group 1 blocks on a huge proactive copy
  // over a starved NVM link: the post-stall advance_virtual crosses many
  // cadence boundaries with zero task progress, which is exactly the
  // wedge signature the detector watches for.
  const std::string tele_path = "telemetry_stall.jsonl";
  const std::string flight_path = "telemetry_stall_flight.json";
  FlightRecorder::Config fc;
  fc.out_path = flight_path;
  flight().configure(fc);
  TelemetryConfig cfg;
  cfg.out_path = tele_path;
  cfg.interval_seconds = 1e-3;
  cfg.stall_intervals = 5;
  telemetry().configure(cfg);
  telemetry().begin_run("wedge");

  memsim::Machine m = memsim::machines::platform_a(
      memsim::devices::nvm_bw_fraction(memsim::devices::dram(256 * kMiB),
                                       0.01, 16 * kGiB),
      256 * kMiB);
  task::GraphBuilder gb;
  gb.begin_group("warm");
  for (int i = 0; i < 4; ++i) {
    task::Task t;
    t.compute_seconds = 1e-4;
    task::DataAccess a;
    a.object = 1;
    a.mode = task::AccessMode::Read;
    a.traffic.loads = 1000;
    a.traffic.footprint = 8000;
    t.accesses = {a};
    gb.add_task(std::move(t));
  }
  gb.begin_group("blocked");
  {
    task::Task t;
    t.compute_seconds = 1e-4;
    task::DataAccess a;
    a.object = 2;
    a.mode = task::AccessMode::Read;
    a.traffic.loads = 1000;
    a.traffic.footprint = 8000;
    t.accesses = {a};
    gb.add_task(std::move(t));
  }
  const task::TaskGraph g = gb.build();
  // The copy fires at group 0 and gates group 1: 64 MiB over the starved
  // link is a long exposed stall.
  task::ScheduledCopy copy;
  copy.object = 2;
  copy.chunk = 0;
  copy.bytes = 64 * kMiB;
  copy.dst = memsim::kDram;
  copy.trigger_group = 0;
  copy.needed_group = 1;
  task::SimExecutor ex;
  task::SimExecutor::Options opts;
  hms::PlacementMap placement;
  placement.set(1, 0, memsim::kDram);
  placement.set(2, 0, memsim::kNvm);
  (void)ex.run(g, m, placement, {copy}, opts);
  telemetry().shutdown();

  const std::string text = read_file(tele_path);
  const std::vector<std::string> lines = lines_of(text);
  ASSERT_GT(lines.size(), 6u);
  bool saw_stall = false;
  for (const std::string& line : lines) {
    const JsonValue v = parse_json(line);
    if (v.at("type").string == "breach" && v.at("kind").string == "stall") {
      saw_stall = true;
      EXPECT_GE(static_cast<int>(v.at("intervals").number), 5);
    }
  }
  EXPECT_TRUE(saw_stall);
  // The breach also bumped the counter and dumped the flight rings.
  EXPECT_GE(global_counters().get("slo.breaches").value(), 1u);
  const std::string flight_text = read_file(flight_path);
  ASSERT_FALSE(flight_text.empty());
  const JsonValue doc = parse_json(flight_text);
  EXPECT_EQ(doc.at("schema").string, "tahoe_flight_v1");
  EXPECT_EQ(doc.at("reason").string, "stall");
  EXPECT_FALSE(doc.at("intervals").array.empty());
  std::remove(tele_path.c_str());
  std::remove(flight_path.c_str());
}

// ---- flight recorder ---------------------------------------------------

TEST_F(TelemetryTest, FlightRingsAreBounded) {
  FlightRecorder::Config fc;
  fc.out_path = "flight_ring.json";
  fc.max_events = 8;
  fc.max_intervals = 4;
  flight().configure(fc);
  std::vector<TraceEvent> batch(3);
  for (int i = 0; i < 8; ++i) flight().record_events(batch);  // 24 events
  EXPECT_EQ(flight().event_count(), 8u);
  for (int i = 0; i < 10; ++i) {
    flight().record_line("{\"type\":\"interval\",\"seq\":" +
                         std::to_string(i) + "}");
  }
  EXPECT_EQ(flight().line_count(), 4u);

  ASSERT_TRUE(flight().dump("test", 1.5));
  const JsonValue doc = parse_json(read_file("flight_ring.json"));
  EXPECT_EQ(doc.at("schema").string, "tahoe_flight_v1");
  EXPECT_EQ(doc.at("reason").string, "test");
  EXPECT_DOUBLE_EQ(doc.at("t").number, 1.5);
  EXPECT_EQ(doc.at("events").array.size(), 8u);
  // The line ring kept the newest four, spliced verbatim.
  ASSERT_EQ(doc.at("intervals").array.size(), 4u);
  EXPECT_DOUBLE_EQ(doc.at("intervals").array[0].at("seq").number, 6.0);
  EXPECT_EQ(flight().dumps(), 1u);
  std::remove("flight_ring.json");
}

TEST_F(TelemetryTest, InjectedFaultTriggersDump) {
  const std::string tele_path = "telemetry_fault.jsonl";
  const std::string flight_path = "telemetry_fault_flight.json";
  FlightRecorder::Config fc;
  fc.out_path = flight_path;
  flight().configure(fc);
  TelemetryConfig cfg;
  cfg.out_path = tele_path;
  cfg.interval_seconds = 0.5;
  telemetry().configure(cfg);
  telemetry().begin_run("faulty");

  // Inject after arming: the next emitted interval polls the fault
  // injector and dumps on the observed delta.
  fault::FaultConfig fcfg;
  fcfg.dram_reservation = 1.0;
  fault::global().configure(fcfg);
  EXPECT_TRUE(fault::global().should_fail(fault::Site::DramReservation));
  telemetry().advance_virtual(0.6);
  telemetry().shutdown();

  const JsonValue doc = parse_json(read_file(flight_path));
  EXPECT_EQ(doc.at("schema").string, "tahoe_flight_v1");
  EXPECT_EQ(doc.at("reason").string, "fault");
  std::remove(tele_path.c_str());
  std::remove(flight_path.c_str());
}

TEST_F(TelemetryTest, DisarmedSamplerIgnoresAdvance) {
  telemetry().shutdown();
  EXPECT_FALSE(telemetry().enabled());
  // advance_virtual on a disarmed sampler is a no-op, not a crash.
  const std::uint64_t before = telemetry().intervals_emitted();
  telemetry().advance_virtual(123.0);
  EXPECT_EQ(telemetry().intervals_emitted(), before);
}

}  // namespace
}  // namespace tahoe::trace
