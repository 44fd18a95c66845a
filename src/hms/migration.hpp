// Asynchronous migration engine: the "helper thread" of the paper line.
//
// The main thread enqueues migration requests into a FIFO queue; a helper
// thread dequeues and performs the copies (real memcpy + pointer
// redirection via the ObjectRegistry) in parallel with application
// execution. The queue doubles as the synchronization mechanism: at a phase
// boundary the runtime calls wait_tag() to ensure the moves needed by the
// upcoming tasks have completed.
//
// The engine also supports inline mode (no thread), which the
// deterministic simulation executor uses: there, copy *timing* is modeled
// as a flow in the fluid simulator while the data movement itself is done
// synchronously at the modeled completion point.
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

  /// Degradation knobs. Defaults match the pre-fault-injection engine
  /// except that transient copy aborts are now retried.
  struct Options {
    Mode mode = Mode::HelperThread;
    /// Retries after a transient (aborted) copy before giving up on the
    /// request and pinning its object to NVM.
    int max_retries = 3;
    /// Initial backoff between retries; doubles per attempt. Only slept in
    /// HelperThread mode so inline (simulation) runs stay instantaneous.
    double retry_backoff_seconds = 50e-6;
  };

  MigrationEngine(ObjectRegistry& registry, Mode mode);
  MigrationEngine(ObjectRegistry& registry, const Options& options);
  ~MigrationEngine();

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  /// Enqueue a request (helper mode) or execute it immediately (inline
  /// mode). Never blocks in helper mode. DRAM-bound requests for objects
  /// that earlier degraded to pinned-NVM are dropped (counted as
  /// cancelled).
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

  /// Objects pinned to NVM after repeated copy failures, in pin order.
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
  std::uint64_t completed_tag_ = 0;  // all tags <= this are done
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
