#include "trace/flight.hpp"

#include <csignal>
#include <fstream>

#include "common/log.hpp"
#include "trace/counters.hpp"
#include "trace/json.hpp"

namespace tahoe::trace {

namespace {

const char* kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::Complete:
      return "complete";
    case EventKind::Instant:
      return "instant";
    case EventKind::Counter:
      return "counter";
  }
  return "unknown";
}

void write_event(JsonWriter& w, const TraceEvent& ev) {
  w.begin_object();
  w.kv("ts", ev.ts);
  if (ev.kind == EventKind::Complete) w.kv("dur", ev.dur);
  w.kv("track", std::uint64_t{ev.track});
  w.kv("kind", kind_name(ev.kind));
  w.kv("name", std::string(ev.name));
  w.key("args").begin_object();
  for (std::uint8_t a = 0; a < ev.num_args; ++a) {
    w.kv(ev.arg_key[a], ev.arg_val[a]);
  }
  w.end_object();
  w.end_object();
}

// Fatal-signal hook: dump whatever the rings hold, then re-raise with the
// default disposition so the process still dies with the right status.
// Dumping takes locks and allocates — not async-signal-safe — but on the
// crash path a best-effort capture beats losing the black box entirely.
void on_fatal_signal(int sig) {
  std::signal(sig, SIG_DFL);
  flight().dump("signal:" + std::to_string(sig), 0.0);
  std::raise(sig);
}

}  // namespace

void FlightRecorder::configure(const Config& config) {
  bool arm = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    config_ = config;
    events_.clear();
    lines_.clear();
    retained_.clear();
    dumps_ = 0;
    arm = !config.out_path.empty();
  }
  armed_.store(arm, std::memory_order_relaxed);
  if (arm) {
    static bool signals_hooked = false;
    if (!signals_hooked) {
      signals_hooked = true;
      std::signal(SIGSEGV, on_fatal_signal);
      std::signal(SIGABRT, on_fatal_signal);
    }
  }
}

void FlightRecorder::disarm() {
  armed_.store(false, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  lines_.clear();
  retained_.clear();
  config_ = Config{};
}

void FlightRecorder::record_events(const std::vector<TraceEvent>& events) {
  if (!armed()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const TraceEvent& ev : events) {
    events_.push_back(ev);
    if (events_.size() > config_.max_events) events_.pop_front();
  }
  retained_.insert(retained_.end(), events.begin(), events.end());
}

void FlightRecorder::record_line(const std::string& line) {
  if (!armed()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  lines_.push_back(line);
  if (lines_.size() > config_.max_intervals) lines_.pop_front();
}

bool FlightRecorder::dump(const std::string& reason, double t) {
  if (!armed()) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(config_.out_path, std::ios::trunc);
  if (!os) {
    TAHOE_WARN("cannot open flight dump file '" << config_.out_path << "'");
    return false;
  }
  ++dumps_;
  {
    // The document's top-level object is left open here: the telemetry
    // lines are complete JSON objects already, so they are spliced in
    // verbatim as the "intervals" array below instead of being re-parsed
    // through the writer.
    JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "tahoe_flight_v1");
    w.kv("reason", reason);
    w.kv("t", t);
    w.kv("dump", dumps_);
    w.kv("dropped_trace_events", global().dropped());
    w.key("events").begin_array();
    for (const TraceEvent& ev : events_) write_event(w, ev);
    w.end_array();
  }
  os << ",\"intervals\":[";
  bool first = true;
  for (const std::string& line : lines_) {
    if (!first) os << ',';
    first = false;
    os << line;
  }
  os << "]}\n";
  os.close();
  if (!os) {
    TAHOE_WARN("failed writing flight dump '" << config_.out_path << "'");
    return false;
  }
  global_counters().get("flight.dumps").increment();
  return true;
}

std::vector<TraceEvent> FlightRecorder::take_retained() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  out.swap(retained_);
  return out;
}

std::uint64_t FlightRecorder::dumps() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dumps_;
}

std::size_t FlightRecorder::event_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::size_t FlightRecorder::line_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_.size();
}

FlightRecorder& flight() {
  static FlightRecorder recorder;
  return recorder;
}

}  // namespace tahoe::trace
