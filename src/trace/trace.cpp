#include "trace/trace.hpp"

#include <chrono>

namespace tahoe::trace {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

EventRing::EventRing(std::size_t capacity_pow2)
    : slots_(round_up_pow2(capacity_pow2 < 2 ? 2 : capacity_pow2)),
      mask_(slots_.size() - 1) {}

bool EventRing::try_push(const TraceEvent& ev) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slots_[head & mask_] = ev;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

void EventRing::drain(std::vector<TraceEvent>& out) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  for (std::uint64_t i = tail; i < head; ++i) {
    out.push_back(slots_[i & mask_]);
  }
  tail_.store(head, std::memory_order_release);
}

namespace {
// Unique per-Tracer id so the thread-local ring cache cannot alias a new
// Tracer constructed at a destroyed one's address.
std::atomic<std::uint64_t> next_tracer_id{1};
}  // namespace

Tracer::Tracer(std::size_t ring_capacity)
    : ring_capacity_(round_up_pow2(ring_capacity < 2 ? 2 : ring_capacity)),
      id_(next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

EventRing& Tracer::ring_for_this_thread() {
  // One cache entry per thread: re-registers when the thread first emits
  // into a *different* Tracer instance (tests construct their own).
  struct Cache {
    std::uint64_t owner = 0;
    EventRing* ring = nullptr;
  };
  thread_local Cache cache;
  if (cache.owner != id_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    rings_.push_back(std::make_unique<EventRing>(ring_capacity_));
    cache.owner = id_;
    cache.ring = rings_.back().get();
  }
  return *cache.ring;
}

void Tracer::emit(const TraceEvent& ev) {
  if (!enabled()) return;
  ring_for_this_thread().try_push(ev);
}

void Tracer::complete(TrackId track, const char* name, double ts, double dur) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = EventKind::Complete;
  ev.track = track;
  ev.ts = ts;
  ev.dur = dur;
  ev.set_name(name);
  ring_for_this_thread().try_push(ev);
}

void Tracer::complete(TrackId track, const char* name, double ts, double dur,
                      const char* k0, std::uint64_t v0) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = EventKind::Complete;
  ev.track = track;
  ev.ts = ts;
  ev.dur = dur;
  ev.set_name(name);
  ev.add_arg(k0, v0);
  ring_for_this_thread().try_push(ev);
}

void Tracer::complete(TrackId track, const char* name, double ts, double dur,
                      const char* k0, std::uint64_t v0, const char* k1,
                      std::uint64_t v1) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = EventKind::Complete;
  ev.track = track;
  ev.ts = ts;
  ev.dur = dur;
  ev.set_name(name);
  ev.add_arg(k0, v0);
  ev.add_arg(k1, v1);
  ring_for_this_thread().try_push(ev);
}

void Tracer::instant(TrackId track, const char* name, double ts) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = EventKind::Instant;
  ev.track = track;
  ev.ts = ts;
  ev.set_name(name);
  ring_for_this_thread().try_push(ev);
}

void Tracer::instant(TrackId track, const char* name, double ts,
                     const char* k0, std::uint64_t v0) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = EventKind::Instant;
  ev.track = track;
  ev.ts = ts;
  ev.set_name(name);
  ev.add_arg(k0, v0);
  ring_for_this_thread().try_push(ev);
}

void Tracer::instant(TrackId track, const char* name, double ts,
                     const char* k0, std::uint64_t v0, const char* k1,
                     std::uint64_t v1) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = EventKind::Instant;
  ev.track = track;
  ev.ts = ts;
  ev.set_name(name);
  ev.add_arg(k0, v0);
  ev.add_arg(k1, v1);
  ring_for_this_thread().try_push(ev);
}

void Tracer::counter(TrackId track, const char* name, double ts,
                     std::uint64_t value) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.kind = EventKind::Counter;
  ev.track = track;
  ev.ts = ts;
  ev.set_name(name);
  ev.add_arg("value", value);
  ring_for_this_thread().try_push(ev);
}

void Tracer::set_track_name(TrackId track, const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [t, n] : track_names_) {
    if (t == track) {
      n = name;
      return;
    }
  }
  track_names_.emplace_back(track, name);
}

std::vector<std::pair<TrackId, std::string>> Tracer::track_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return track_names_;
}

std::vector<TraceEvent> Tracer::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  for (const std::unique_ptr<EventRing>& ring : rings_) {
    ring->drain(out);
  }
  return out;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const std::unique_ptr<EventRing>& ring : rings_) {
    total += ring->dropped();
  }
  return total;
}

std::size_t Tracer::num_rings() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rings_.size();
}

Tracer& global() {
  static Tracer tracer;
  return tracer;
}

void name_standard_tracks(std::uint32_t workers) {
  Tracer& tracer = global();
  if (!tracer.enabled()) return;
  for (std::uint32_t w = 0; w < workers; ++w) {
    tracer.set_track_name(w, "worker " + std::to_string(w));
  }
  tracer.set_track_name(kMigrationTrack, "migration engine");
  tracer.set_track_name(kPlannerTrack, "planner");
  tracer.set_track_name(kRuntimeTrack, "runtime phases");
}

double now_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

}  // namespace tahoe::trace
