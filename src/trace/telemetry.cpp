#include "trace/telemetry.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"
#include "trace/flight.hpp"
#include "trace/json.hpp"
#include "trace/trace.hpp"

namespace tahoe::trace {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool is_hist_stat(const std::string& stat) {
  return stat == "p50" || stat == "p90" || stat == "p99" || stat == "mean" ||
         stat == "count" || stat == "max";
}

double hist_stat(const HistogramSnapshot& h, const std::string& stat) {
  if (stat == "p50") return static_cast<double>(h.p50());
  if (stat == "p90") return static_cast<double>(h.p90());
  if (stat == "p99") return static_cast<double>(h.p99());
  if (stat == "mean") return h.mean();
  if (stat == "count") return static_cast<double>(h.count());
  return static_cast<double>(h.max);
}

/// Rejects `spec` unless `ok`. The message names the rule and its defect
/// alone: it reaches the command line as it is.
void require_rule(bool ok, const std::string& spec, const std::string& defect) {
  if (!ok) throw ContractError("SLO rule '" + spec + "' " + defect);
}

}  // namespace

bool SloRule::holds(double observed) const noexcept {
  switch (op) {
    case Op::Lt:
      return observed < limit;
    case Op::Le:
      return observed <= limit;
    case Op::Gt:
      return observed > limit;
    case Op::Ge:
      return observed >= limit;
  }
  return true;
}

SloRule parse_slo_rule(const std::string& spec) {
  SloRule rule;
  rule.text = trim(spec);
  const std::string& s = rule.text;
  const std::size_t colon = s.find(':');
  require_rule(colon != std::string::npos, spec, "lacks a kind: prefix");
  const std::string kind = s.substr(0, colon);
  if (kind == "counter") {
    rule.kind = SloRule::Kind::Counter;
  } else if (kind == "gauge") {
    rule.kind = SloRule::Kind::Gauge;
  } else if (kind == "hist") {
    rule.kind = SloRule::Kind::Hist;
  } else {
    require_rule(false, spec, "kind must be counter, gauge or hist");
  }

  // Locate the comparison operator (two-char forms first).
  std::size_t op_pos = std::string::npos;
  std::size_t op_len = 0;
  for (std::size_t i = colon + 1; i < s.size(); ++i) {
    if (s[i] == '<' || s[i] == '>') {
      op_pos = i;
      op_len = (i + 1 < s.size() && s[i + 1] == '=') ? 2 : 1;
      break;
    }
  }
  require_rule(op_pos != std::string::npos, spec,
               "lacks a comparison (< <= > >=)");
  const std::string op = s.substr(op_pos, op_len);
  rule.op = op == "<"    ? SloRule::Op::Lt
            : op == "<=" ? SloRule::Op::Le
            : op == ">"  ? SloRule::Op::Gt
                         : SloRule::Op::Ge;

  // metric[.stat] — metric names contain dots, so only a known stat
  // suffix is split off; everything else stays part of the name.
  std::string lhs = trim(s.substr(colon + 1, op_pos - colon - 1));
  require_rule(!lhs.empty(), spec, "lacks a metric");
  const std::size_t dot = lhs.rfind('.');
  std::string stat = dot == std::string::npos ? "" : lhs.substr(dot + 1);
  switch (rule.kind) {
    case SloRule::Kind::Counter:
      if (stat == "rate" || stat == "delta") {
        rule.stat = stat;
        lhs.resize(dot);
      } else {
        rule.stat = "rate";
      }
      break;
    case SloRule::Kind::Gauge:
      if (stat == "level") lhs.resize(dot);
      rule.stat = "level";
      break;
    case SloRule::Kind::Hist:
      if (is_hist_stat(stat)) {
        rule.stat = stat;
        lhs.resize(dot);
      } else {
        rule.stat = "p99";
      }
      break;
  }
  rule.metric = lhs;
  require_rule(!rule.metric.empty(), spec, "lacks a metric");

  // value[unit]: ns/us/ms/s scale to nanoseconds (the histogram unit).
  const std::string rhs = trim(s.substr(op_pos + op_len));
  require_rule(!rhs.empty(), spec, "lacks a limit");
  char* end = nullptr;
  rule.limit = std::strtod(rhs.c_str(), &end);
  require_rule(end != rhs.c_str(), spec, "has a malformed limit");
  const std::string unit = trim(std::string(end));
  if (unit == "ns" || unit.empty()) {
    // raw units
  } else if (unit == "us") {
    rule.limit *= 1e3;
  } else if (unit == "ms") {
    rule.limit *= 1e6;
  } else if (unit == "s") {
    rule.limit *= 1e9;
  } else {
    require_rule(false, spec, "has unknown unit '" + unit + "'");
  }
  return rule;
}

std::vector<SloRule> parse_slo_rules(const std::string& csv) {
  std::vector<SloRule> rules;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (trim(item).empty()) continue;
    rules.push_back(parse_slo_rule(item));
  }
  return rules;
}

bool slo_observed(const SloRule& rule, const IntervalSample& sample,
                  double* observed) {
  switch (rule.kind) {
    case SloRule::Kind::Counter: {
      // A counter absent from the sample simply did not move: evaluate
      // with a zero delta, so throughput-floor rules catch quiet
      // intervals.
      std::uint64_t delta = 0;
      for (const auto& [name, d] : sample.counter_deltas) {
        if (name == rule.metric) {
          delta = d;
          break;
        }
      }
      *observed = rule.stat == "delta"
                      ? static_cast<double>(delta)
                      : (sample.dt > 0.0
                             ? static_cast<double>(delta) / sample.dt
                             : 0.0);
      return true;
    }
    case SloRule::Kind::Gauge:
      // An unregistered gauge has no level; skip rather than invent one.
      for (const auto& [name, v] : sample.gauges) {
        if (name == rule.metric) {
          *observed = static_cast<double>(v);
          return true;
        }
      }
      return false;
    case SloRule::Kind::Hist:
      // Percentiles are statements about this interval's recordings; an
      // interval with none is skipped, not treated as zero latency.
      for (const auto& [name, h] : sample.hist_deltas) {
        if (name == rule.metric) {
          *observed = hist_stat(h, rule.stat);
          return true;
        }
      }
      return false;
  }
  return false;
}

namespace {

std::string serialize_interval(std::uint64_t seq,
                               const IntervalSample& sample) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("type", "interval");
  w.kv("seq", seq);
  w.kv("t", sample.t);
  w.kv("dt", sample.dt);
  w.key("counters").begin_object();
  for (const auto& [name, delta] : sample.counter_deltas) {
    w.key(name).begin_object();
    w.kv("delta", delta);
    w.kv("rate", sample.dt > 0.0
                     ? static_cast<double>(delta) / sample.dt
                     : 0.0);
    w.end_object();
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : sample.gauges) w.kv(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : sample.hist_deltas) {
    w.key(name).begin_object();
    w.kv("count", h.count());
    w.kv("p50", h.p50());
    w.kv("p90", h.p90());
    w.kv("p99", h.p99());
    w.kv("max", h.max);
    w.kv("mean", h.mean());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return os.str();
}

std::string serialize_breach(std::uint64_t seq, double t, const SloRule& rule,
                             double observed) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("type", "breach");
  w.kv("seq", seq);
  w.kv("t", t);
  w.kv("kind", "slo");
  w.kv("rule", rule.text);
  w.kv("metric", rule.metric);
  w.kv("stat", rule.stat);
  w.kv("observed", observed);
  w.kv("limit", rule.limit);
  w.end_object();
  return os.str();
}

std::string serialize_stall(std::uint64_t seq, double t, int intervals) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("type", "breach");
  w.kv("seq", seq);
  w.kv("t", t);
  w.kv("kind", "stall");
  w.kv("intervals", static_cast<std::int64_t>(intervals));
  w.end_object();
  return os.str();
}

std::string serialize_phase(std::uint64_t seq, const std::string& label) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("type", "phase");
  w.kv("seq", seq);
  w.kv("label", label);
  w.end_object();
  return os.str();
}

}  // namespace

void TelemetrySampler::configure(const TelemetryConfig& config) {
  shutdown();
  TAHOE_REQUIRE(config.interval_seconds > 0.0,
                "telemetry interval must be positive");
  const std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  seq_ = 0;
  boundary_ = 0;
  emitted_ = 0;
  progress_seen_ = false;
  zero_progress_ = 0;
  // Start the first interval from the current values.
  (void)global_counters().take_interval(0.0, 0.0);
  prev_faults_ = fault::global().total_injected();
  // Anything to do? A stream, watchdog rules, a stall detector, or an
  // armed flight recorder (which needs the per-interval drain/poll even
  // with no stream).
  const bool active = !config.out_path.empty() || !config.rules.empty() ||
                      config.stall_intervals > 0 || flight().armed();
  if (!active) return;
  if (!config.out_path.empty()) {
    out_.open(config.out_path, std::ios::trunc);
    if (!out_) {
      TAHOE_WARN("cannot open telemetry output file '" << config.out_path
                                                       << "'");
    } else {
      out_open_ = true;
    }
  }
  enabled_.store(true, std::memory_order_relaxed);
  if (config_.wall_clock) {
    stop_ = false;
    thread_ = std::thread([this] { wall_loop(); });
  }
}

void TelemetrySampler::shutdown() {
  stop_thread();
  const std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
  if (out_open_) {
    out_.flush();
    out_.close();
    out_open_ = false;
  }
}

void TelemetrySampler::stop_thread() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
  }
}

void TelemetrySampler::advance_virtual(double now) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (config_.wall_clock) return;
  const double interval = config_.interval_seconds;
  // Bounded catch-up: a pathological (tiny-interval, huge-jump) config
  // must not wedge the run emitting lines. Skipped intervals are empty by
  // construction — nothing changed between them — so the fast-forward is
  // still deterministic.
  constexpr std::uint64_t kMaxPerCall = 1u << 20;
  std::uint64_t calls = 0;
  while (now >= static_cast<double>(boundary_ + 1) * interval) {
    if (++calls > kMaxPerCall) {
      TAHOE_WARN("telemetry catch-up clamped after " << kMaxPerCall
                                                     << " intervals");
      boundary_ = static_cast<std::uint64_t>(now / interval);
      break;
    }
    ++boundary_;
    emit_interval(static_cast<double>(boundary_) * interval, interval);
  }
}

void TelemetrySampler::begin_run(const std::string& label) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string line = serialize_phase(seq_, label);
  if (out_open_) out_ << line << '\n';
  flight().record_line(line);
  // The run-relative clock restarts; the sequence number keeps counting.
  boundary_ = 0;
  progress_seen_ = false;
  zero_progress_ = 0;
}

std::uint64_t TelemetrySampler::intervals_emitted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

void TelemetrySampler::emit_interval(double t, double dt) {
  sync_dropped_events_counter();
  const IntervalSample sample = global_counters().take_interval(t, dt);
  const std::uint64_t seq = seq_++;
  // Lines are built only for a reader: the stream or the flight ring.
  const bool flight_armed = flight().armed();
  const bool has_reader = out_open_ || flight_armed;
  const auto write_line = [this](const std::string& line) {
    if (out_open_) out_ << line << '\n';
    flight().record_line(line);
  };
  if (has_reader) write_line(serialize_interval(seq, sample));
  if (flight_armed) flight().record_events(global().drain());

  // Declarative watchdog rules.
  bool breached = false;
  for (const SloRule& rule : config_.rules) {
    double observed = 0.0;
    if (!slo_observed(rule, sample, &observed)) continue;
    if (rule.holds(observed)) continue;
    if (has_reader) write_line(serialize_breach(seq, t, rule, observed));
    global_counters().get("slo.breaches").increment();
    breached = true;
  }

  // No-progress stall detector: arms after the first interval that showed
  // progress, fires after K consecutive zero-progress intervals, then
  // re-arms only once progress resumes (one breach per stall episode).
  if (config_.stall_intervals > 0) {
    std::uint64_t progress = 0;
    for (const auto& [name, delta] : sample.counter_deltas) {
      if (name == "sim.tasks_executed" || name == "executor.tasks") {
        progress += delta;
      }
    }
    if (progress > 0) {
      progress_seen_ = true;
      zero_progress_ = 0;
    } else if (progress_seen_ &&
               ++zero_progress_ >= config_.stall_intervals) {
      if (has_reader) write_line(serialize_stall(seq, t, zero_progress_));
      global_counters().get("slo.breaches").increment();
      progress_seen_ = false;
      zero_progress_ = 0;
      if (flight_armed) flight().dump("stall", t);
    }
  }
  if (breached && flight_armed) flight().dump("slo-breach", t);

  // Injected-fault trigger: poll the injector's cumulative count so the
  // fault layer needs no coupling to the recorder.
  const std::uint64_t faults = fault::global().total_injected();
  if (faults != prev_faults_) {
    if (flight_armed) flight().dump("fault", t);
    prev_faults_ = faults;
  }
  ++emitted_;
}

void TelemetrySampler::wall_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(config_.interval_seconds));
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stop_) {
    if (cv_.wait_until(lock, next, [this] { return stop_; })) break;
    next += interval;
    ++boundary_;
    emit_interval(static_cast<double>(boundary_) * config_.interval_seconds,
                  config_.interval_seconds);
  }
}

TelemetrySampler& telemetry() {
  static TelemetrySampler sampler;
  return sampler;
}

void register_telemetry_flags(Flags& flags) {
  flags.define_string("telemetry-out", "",
                      "stream interval telemetry (counter deltas/rates, "
                      "gauge levels, histogram digests) as JSONL here");
  flags.define_double("telemetry-interval", 0.1,
                      "telemetry sampling cadence in seconds");
  flags.define_string("telemetry-clock", "virtual",
                      "telemetry clock: virtual (simulated paths, "
                      "deterministic) or wall (background thread)");
  flags.define_string("slo-rules", "",
                      "comma-separated SLO watchdog rules, e.g. "
                      "hist:serve.prod.request_ns.p99<250ms");
  flags.define_int("slo-stall-intervals", 0,
                   "breach after this many consecutive zero-progress "
                   "telemetry intervals (0 = off)");
  flags.define_string("flight-out", "",
                      "dump the flight-recorder rings (last trace events + "
                      "telemetry intervals) here on fault, SLO breach or "
                      "fatal signal");
  flags.define_int("flight-events", 2048,
                   "flight recorder: trace events kept");
  flags.define_int("flight-intervals", 64,
                   "flight recorder: telemetry lines kept");
}

TelemetryConfig telemetry_config_from_flags(const Flags& flags) {
  TelemetryConfig config;
  config.out_path = flags.get_string("telemetry-out");
  config.interval_seconds = flags.get_double("telemetry-interval");
  flags.require_flag(
      std::isfinite(config.interval_seconds) && config.interval_seconds > 0.0,
      "--telemetry-interval must be a positive number of seconds");
  const std::string clock = flags.get_string("telemetry-clock");
  flags.require_flag(clock == "virtual" || clock == "wall",
                     "--telemetry-clock must be 'virtual' or 'wall'");
  config.wall_clock = clock == "wall";
  try {
    config.rules = parse_slo_rules(flags.get_string("slo-rules"));
  } catch (const ContractError& e) {
    flags.require_flag(false, std::string("--slo-rules: ") + e.what());
  }
  config.stall_intervals = static_cast<int>(flags.get_uint(
      "slo-stall-intervals", std::numeric_limits<int>::max()));
  return config;
}

void configure_telemetry_from_flags(const Flags& flags) {
  // Flight first: the sampler's activation check consults armed().
  const std::string flight_out = flags.get_string("flight-out");
  if (!flight_out.empty()) {
    FlightRecorder::Config fc;
    fc.out_path = flight_out;
    fc.max_events = flags.get_uint("flight-events");
    fc.max_intervals = flags.get_uint("flight-intervals");
    flight().configure(fc);
  } else {
    flight().disarm();
  }
  const TelemetryConfig config = telemetry_config_from_flags(flags);
  telemetry().configure(config);
  if (telemetry().enabled() && !config.out_path.empty()) {
    // Interval histogram digests (per-tenant p50/p99) need the recording
    // sites on, same as the other artifact outputs.
    set_histograms_enabled(true);
  }
  if (telemetry().enabled()) {
    static bool exit_hooked = false;
    if (!exit_hooked) {
      exit_hooked = true;
      std::atexit([] { telemetry().shutdown(); });
    }
  }
}

void sync_dropped_events_counter() {
  const std::uint64_t dropped = global().dropped();
  if (dropped == 0) return;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    TAHOE_WARN("tracer dropped "
               << dropped
               << " event(s) on full rings; raise the ring capacity or "
                  "sample/drain more often");
  }
  // The total is monotonic, so set() keeps the counter semantics.
  global_counters().get("trace.dropped_events").set(dropped);
}

}  // namespace tahoe::trace
