#include "trace/chrome_export.hpp"

#include <algorithm>
#include <fstream>
#include <set>

#include "common/log.hpp"
#include "trace/flight.hpp"
#include "trace/json.hpp"

namespace tahoe::trace {

namespace {

constexpr double kMicros = 1e6;

void write_args(JsonWriter& w, const TraceEvent& ev) {
  w.key("args").begin_object();
  for (std::uint8_t a = 0; a < ev.num_args; ++a) {
    w.kv(ev.arg_key[a], ev.arg_val[a]);
  }
  w.end_object();
}

}  // namespace

void write_chrome_trace(
    std::ostream& os, const std::vector<TraceEvent>& events,
    const std::vector<std::pair<TrackId, std::string>>& track_names,
    std::uint64_t dropped_events) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("tahoe").begin_object();
  w.kv("schema_version", std::uint64_t{2});
  w.kv("dropped_events", dropped_events);
  w.end_object();
  w.key("traceEvents").begin_array();

  // Metadata: name every track that appears, so Perfetto shows labels
  // instead of raw tids. sort_index keeps workers above the machinery.
  std::set<TrackId> tracks;
  for (const TraceEvent& ev : events) tracks.insert(ev.track);
  for (const auto& [track, name] : track_names) tracks.insert(track);
  for (const TrackId track : tracks) {
    std::string label = "track " + std::to_string(track);
    for (const auto& [t, n] : track_names) {
      if (t == track) {
        label = n;
        break;
      }
    }
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", std::uint64_t{track});
    w.kv("name", "thread_name");
    w.key("args").begin_object().kv("name", label).end_object();
    w.end_object();
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", std::uint64_t{track});
    w.kv("name", "thread_sort_index");
    w.key("args")
        .begin_object()
        .kv("sort_index", std::uint64_t{track})
        .end_object();
    w.end_object();
  }

  // Emit in timestamp order: rings are drained per-thread, so the raw
  // stream is only ordered within a thread.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const TraceEvent& ev : events) ordered.push_back(&ev);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->ts < b->ts;
                   });

  for (const TraceEvent* ev : ordered) {
    w.begin_object();
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", std::uint64_t{ev->track});
    w.kv("name", ev->name);
    w.kv("ts", ev->ts * kMicros);
    switch (ev->kind) {
      case EventKind::Complete:
        w.kv("ph", "X");
        w.kv("dur", ev->dur * kMicros);
        write_args(w, *ev);
        break;
      case EventKind::Instant:
        w.kv("ph", "i");
        w.kv("s", "t");  // thread-scoped instant
        write_args(w, *ev);
        break;
      case EventKind::Counter:
        w.kv("ph", "C");
        write_args(w, *ev);
        break;
    }
    w.end_object();
  }

  w.end_array();
  w.end_object();
  os << '\n';
}

bool export_chrome_trace(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    TAHOE_WARN("cannot open trace output file '" << path << "'");
    return false;
  }
  Tracer& tracer = global();
  std::vector<TraceEvent> events = flight().take_retained();
  const std::vector<TraceEvent> fresh = tracer.drain();
  events.insert(events.end(), fresh.begin(), fresh.end());
  const std::uint64_t dropped = tracer.dropped();
  write_chrome_trace(os, events, tracer.track_names(), dropped);
  if (dropped > 0) {
    TAHOE_WARN("trace rings dropped " << dropped
                                      << " events (enlarge ring capacity)");
  }
  return static_cast<bool>(os);
}

}  // namespace tahoe::trace
