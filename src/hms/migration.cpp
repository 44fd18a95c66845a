#include "hms/migration.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

namespace tahoe::hms {
namespace {

void sleep_seconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

MigrationEngine::MigrationEngine(ObjectRegistry& registry, Mode mode)
    : MigrationEngine(registry, Options{.mode = mode}) {}

MigrationEngine::MigrationEngine(ObjectRegistry& registry,
                                 const Options& options)
    : registry_(registry), options_(options) {
  TAHOE_REQUIRE(options_.max_retries >= 0, "negative retry bound");
  TAHOE_REQUIRE(options_.retry_backoff_seconds >= 0.0, "negative backoff");
  const std::size_t n = registry_.num_tiers();
  bytes_moved_.resize(n * n);
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;  // a copy always changes tier
      bytes_moved_[src * n + dst] = &trace::global_counters().get(
          "migrate.bytes.t" + std::to_string(src) + "_t" +
          std::to_string(dst));
    }
  }
  if (options_.mode == Mode::HelperThread) {
    worker_ = std::thread([this] { worker_loop(); });
  }
}

MigrationEngine::~MigrationEngine() {
  if (options_.mode == Mode::HelperThread) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_enqueue_.notify_all();
    worker_.join();
  }
}

void MigrationEngine::enqueue(const MigrationRequest& req) {
  {
    // Degradation: once an object is pinned to NVM, later attempts to
    // promote it are known to fail — drop them instead of burning the
    // helper thread on doomed copies.
    const std::lock_guard<std::mutex> lock(mutex_);
    if (req.dst == memsim::kDram && nvm_pinned_.contains(req.object)) {
      ++cancelled_;
      trace::global_counters().get("migrate.cancelled").increment();
      completed_tag_ = std::max(completed_tag_, req.tag);
      return;
    }
  }
  if (options_.mode == Mode::Inline) {
    execute(req);
    const std::lock_guard<std::mutex> lock(mutex_);
    completed_tag_ = std::max(completed_tag_, req.tag);
    return;
  }
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    TAHOE_REQUIRE(!stop_, "enqueue after engine shutdown");
    queue_.push_back(req);
    if (trace::histograms_enabled()) {
      queue_.back().enqueue_seconds = trace::now_seconds();
    }
    depth = queue_.size();
  }
  cv_enqueue_.notify_one();
  trace::global_counters().gauge("migrate.queue_depth").set(depth);
  trace::Tracer& tracer = trace::global();
  if (tracer.enabled()) {
    tracer.counter(trace::kMigrationTrack, "migrate_queue_depth",
                   trace::now_seconds(), depth);
  }
}

void MigrationEngine::execute(const MigrationRequest& req) {
  trace::Tracer& tracer = trace::global();
  const bool traced = tracer.enabled();
  const DataObject& obj = registry_.get(req.object);
  const std::uint64_t bytes = obj.chunk(req.chunk).bytes;
  const memsim::DeviceId src = obj.chunk(req.chunk).device;
  const bool hist = trace::histograms_enabled();
  const double begin = (traced || hist) ? trace::now_seconds() : 0.0;

  // Chaos hook: a stalled copy. Only slept in helper mode — inline mode
  // backs the deterministic simulator, where time is modeled, not spent.
  if (options_.mode == Mode::HelperThread) {
    sleep_seconds(fault::global().stall_seconds());
  }

  MigrateResult res = registry_.try_migrate_chunk(req.object, req.chunk,
                                                  req.dst);
  // Transient aborts get bounded retries with doubling backoff; exhaustion
  // does not (retrying a full tier without eviction cannot succeed).
  double backoff = options_.retry_backoff_seconds;
  for (int attempt = 0;
       res == MigrateResult::kAborted && attempt < options_.max_retries;
       ++attempt) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++retried_;
    }
    trace::global_counters().get("migrate.retried").increment();
    if (options_.mode == Mode::HelperThread) sleep_seconds(backoff);
    backoff *= 2.0;
    res = registry_.try_migrate_chunk(req.object, req.chunk, req.dst);
  }

  const bool ok =
      res == MigrateResult::kMoved || res == MigrateResult::kAlreadyThere;
  if (traced && src != req.dst) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::Complete;
    ev.track = trace::kMigrationTrack;
    ev.ts = begin;
    ev.dur = trace::now_seconds() - begin;
    ev.set_name(ok ? "migrate" : "migrate (rejected)");
    ev.add_arg("bytes", bytes);
    ev.add_arg("src_tier", src);
    ev.add_arg("dst_tier", req.dst);
    ev.add_arg("object", req.object);
    tracer.emit(ev);
  }
  if (ok && src != req.dst) {
    bytes_moved_[src * registry_.num_tiers() + req.dst]->add(bytes);
    if (hist) {
      static trace::Histogram& copy_seconds =
          trace::global_counters().histogram("migrate.copy_seconds");
      copy_seconds.record_seconds(trace::now_seconds() - begin);
    }
  }
  if (res == MigrateResult::kNoSpace) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++rejected_;
    TAHOE_WARN("migration of object " << req.object << " chunk " << req.chunk
                                      << " rejected: no space on tier "
                                      << req.dst);
  } else if (res == MigrateResult::kAborted) {
    // Degrade: give up on this request and pin the object to NVM so the
    // planner stops scheduling promotions that keep failing.
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++aborted_;
      if (req.dst == memsim::kDram && nvm_pinned_.insert(req.object).second) {
        pin_order_.push_back(req.object);
      }
    }
    trace::global_counters().get("migrate.aborted").increment();
    TAHOE_WARN("migration of object " << req.object << " chunk " << req.chunk
                                      << " abandoned after "
                                      << options_.max_retries
                                      << " retries; object pinned to NVM");
  }
}

void MigrationEngine::worker_loop() {
  for (;;) {
    MigrationRequest req;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_enqueue_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        TAHOE_ASSERT(stop_, "worker woke without work or stop");
        return;
      }
      req = queue_.front();
      queue_.pop_front();
      // Mark in-flight so wait_tag/drain observe it as incomplete while
      // the copy runs outside the lock; cancel_tag never touches it.
      active_ = req;
      trace::global_counters().gauge("migrate.queue_depth").set(queue_.size());
    }
    if (req.enqueue_seconds > 0.0 && trace::histograms_enabled()) {
      static trace::Histogram& queue_wait =
          trace::global_counters().histogram("migrate.queue_wait_seconds");
      queue_wait.record_seconds(trace::now_seconds() - req.enqueue_seconds);
    }
    execute(req);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      active_.reset();
      completed_tag_ = std::max(completed_tag_, req.tag);
    }
    cv_done_.notify_all();
  }
}

void MigrationEngine::wait_tag(std::uint64_t tag) {
  if (options_.mode == Mode::Inline) return;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this, tag] {
    if (active_ && active_->tag <= tag) return false;
    for (const MigrationRequest& r : queue_) {
      if (r.tag <= tag) return false;
    }
    return true;
  });
}

bool MigrationEngine::wait_tag_for(std::uint64_t tag, double timeout_seconds) {
  if (options_.mode == Mode::Inline) return true;
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_done_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), [this, tag] {
        if (active_ && active_->tag <= tag) return false;
        for (const MigrationRequest& r : queue_) {
          if (r.tag <= tag) return false;
        }
        return true;
      });
}

std::size_t MigrationEngine::cancel_tag(std::uint64_t tag) {
  std::size_t n = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto doomed = [tag](const MigrationRequest& r) {
      return r.tag <= tag;
    };
    n = static_cast<std::size_t>(
        std::count_if(queue_.begin(), queue_.end(), doomed));
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(), doomed),
                 queue_.end());
    cancelled_ += n;
  }
  if (n > 0) {
    trace::global_counters().get("migrate.cancelled").add(n);
    cv_done_.notify_all();
  }
  return n;
}

void MigrationEngine::drain() {
  if (options_.mode == Mode::Inline) return;
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] { return queue_.empty() && !active_; });
}

std::uint64_t MigrationEngine::rejected() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

std::uint64_t MigrationEngine::retried() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return retried_;
}

std::uint64_t MigrationEngine::aborted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return aborted_;
}

std::uint64_t MigrationEngine::cancelled() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cancelled_;
}

std::vector<ObjectId> MigrationEngine::degraded_objects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pin_order_;
}

bool MigrationEngine::is_pinned(ObjectId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return nvm_pinned_.contains(id);
}

std::size_t MigrationEngine::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + (active_ ? 1 : 0);
}

}  // namespace tahoe::hms
