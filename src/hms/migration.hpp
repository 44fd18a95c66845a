// Asynchronous migration engine: the "helper thread" of the paper line.
//
// The main thread enqueues migration requests into a FIFO queue; a helper
// thread dequeues and performs the copies (real memcpy + pointer
// redirection via the ObjectRegistry) in parallel with application
// execution. The queue doubles as the synchronization mechanism: at a phase
// boundary the runtime calls wait_tag() to ensure the moves needed by the
// upcoming tasks have completed.
//
// The engine also supports inline mode (no thread): enqueue() performs the
// copy on the calling thread before it returns. Only tests use it; the
// simulation executor models copies as fluid-simulator flows and never
// drives the engine.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "hms/registry.hpp"

namespace tahoe::trace {
class Counter;
}

namespace tahoe::hms {

struct MigrationRequest {
  ObjectId object = kInvalidObject;
  std::size_t chunk = 0;
  memsim::DeviceId dst = memsim::kDram;
  /// Monotonic tag; wait_tag(t) blocks until all requests with tag <= t
  /// are done. The runtime tags requests with the phase that needs them.
  std::uint64_t tag = 0;
  /// Stamped by enqueue() in helper mode when histograms are enabled; the
  /// dequeue side records the queue-wait latency from it. 0 = unstamped.
  double enqueue_seconds = 0.0;
};

class MigrationEngine {
 public:
  enum class Mode { HelperThread, Inline };

  /// A transient (aborted) copy is retried 3 times before the engine gives
  /// up on the request and, for a promotion, pins its object to the
  /// capacity tier.
  struct Options {
    Mode mode = Mode::HelperThread;
    /// Initial backoff between retries; doubles per attempt. Only slept in
    /// HelperThread mode so inline runs stay instantaneous.
    double retry_backoff_seconds = 50e-6;
  };

  MigrationEngine(ObjectRegistry& registry, Mode mode);
  MigrationEngine(ObjectRegistry& registry, const Options& options);
  ~MigrationEngine();

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  /// Enqueue a request (helper mode) or execute it immediately (inline
  /// mode). Never blocks in helper mode. A promotion (any destination but
  /// the capacity tier) of an object pinned to the capacity tier is
  /// dropped and counted as cancelled.
  void enqueue(const MigrationRequest& req);

  /// Block until every request with tag <= `tag` has been processed.
  void wait_tag(std::uint64_t tag);

  /// Like wait_tag() but gives up after `timeout_seconds`. Returns true if
  /// the tag completed, false on timeout (e.g. a stalled copy); the caller
  /// can then cancel_tag() and proceed degraded.
  bool wait_tag_for(std::uint64_t tag, double timeout_seconds);

  /// Remove every *queued* request with tag <= `tag` that has not started
  /// executing. The in-flight request (if any) is never interrupted — its
  /// copy completes safely. Returns the number of requests cancelled.
  std::size_t cancel_tag(std::uint64_t tag);

  /// Block until the queue is fully drained.
  void drain();

  /// Requests whose destination had no space (the planner should have
  /// prevented these; counted for diagnostics).
  std::uint64_t rejected() const;

  /// Retry attempts after transient copy aborts.
  std::uint64_t retried() const;
  /// Requests abandoned after exhausting retries.
  std::uint64_t aborted() const;
  /// Requests cancelled before execution (cancel_tag or pinned-object drop).
  std::uint64_t cancelled() const;

  /// Objects pinned to the capacity tier after a promotion failed
  /// repeatedly, in pin order.
  std::vector<ObjectId> degraded_objects() const;
  bool is_pinned(ObjectId id) const;

  std::size_t pending() const;
  Mode mode() const noexcept { return options_.mode; }
  const Options& options() const noexcept { return options_; }

 private:
  void worker_loop();
  void execute(const MigrationRequest& req);

  ObjectRegistry& registry_;
  Options options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_enqueue_;
  std::condition_variable cv_done_;
  std::deque<MigrationRequest> queue_;
  /// Request currently executing on the helper thread; wait_tag/drain/
  /// pending treat it as outstanding even though it left the queue.
  std::optional<MigrationRequest> active_;
  std::uint64_t rejected_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t cancelled_ = 0;
  std::unordered_set<ObjectId> nvm_pinned_;
  std::vector<ObjectId> pin_order_;
  bool stop_ = false;
  /// migrate.bytes.t<src>_t<dst>, indexed src * num_tiers + dst.
  std::vector<trace::Counter*> bytes_moved_;
  std::thread worker_;
};

}  // namespace tahoe::hms
