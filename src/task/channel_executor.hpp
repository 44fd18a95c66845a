// Channel-based adaptive work-stealing executor (second `IExecutor`
// backend; see executor_base.hpp for the shared surface and executor.hpp
// for the Chase–Lev baseline).
//
// Design (after aprell/tasking-2.0): workers keep their ready tasks in
// *private* deques — plain, atomic-free containers only the owner ever
// touches — so the local push/pop hot path costs no synchronization at
// all, unlike a Chase–Lev deque whose owner pop must win a seq_cst race
// against thieves on every last element. Work moves between workers only
// through explicit messages over bounded SPSC channels
// (spsc_channel.hpp):
//
//   * A thief with no local work sends a `StealRequest` to one victim at
//     a time and spins (yielding, and answering its own incoming requests
//     to stay deadlock-free) until the victim replies.
//   * The victim answers at its next scheduling boundary: a `StealReply`
//     carrying one task (steal-one), *half of its deque* (steal-half,
//     oldest tasks first — the ones farthest from the owner's working
//     set), or nothing (a decline).
//   * Victim selection walks the *worker tree* first (parent and children
//     of the thief's node in an implicit binary tree over worker ids, so
//     work diffuses between neighbours before going global), then the
//     remaining workers in a randomized rotation.
//   * An adaptive controller flips each worker between steal-one and
//     steal-half from its observed failed-request (decline) rate: when
//     most requests come back empty, work is scarce and fragmented, so a
//     successful steal should grab half a deque and stop the request
//     storm; when requests mostly succeed, work is plentiful and
//     steal-one keeps it spread out.
//
// Lanes and barriers match the Chase–Lev backend: each worker has one
// private deque plus one SPSC inbox fed by the run() caller. The
// group-barrier/activation-token protocol lives in ExecutorBase, so
// `run_real_report` and phase-mode callers see identical semantics on
// both backends.
//
// Stats convention: a reply of k tasks counts 1 steal (the task the thief
// runs immediately) + (k-1) pushes into the thief's private deque, whose
// later pops count as pops — so pops + steals + inject_takes == tasks_run
// holds on both backends, while pushes exceeds the task count by the
// re-enqueued share of steal-half batches.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "task/executor_base.hpp"
#include "task/graph.hpp"
#include "task/spsc_channel.hpp"

namespace tahoe::task {

/// How much a thief asks for in one request.
enum class StealMode : std::uint8_t {
  kOne = 0,   ///< one task per successful request
  kHalf = 1,  ///< half the victim's deque (capped at kMaxStealBatch)
};

class ChannelExecutor final : public ExecutorBase {
 public:
  /// Upper bound on tasks per steal reply; bounds the reply message size.
  static constexpr unsigned kMaxStealBatch = 64;

  struct Options {
    /// Initial per-worker steal mode.
    StealMode initial_mode = StealMode::kOne;
    /// Adaptive steal-one<->steal-half switching from decline rates.
    bool adaptive = true;
    /// Requests per adaptation window. A worker switches to steal-half
    /// when more than half of a window's requests were declined, and back
    /// to steal-one when fewer than a quarter were.
    unsigned adapt_window = 32;
    /// Per-worker injection inbox capacity (caller spins when full).
    std::size_t inbox_capacity = 1024;
  };

  // Two overloads rather than `Options options = {}`: gcc rejects a
  // brace-init default argument of a nested aggregate with member
  // initializers while the enclosing class is still incomplete.
  explicit ChannelExecutor(unsigned num_workers)
      : ChannelExecutor(num_workers, Options()) {}
  ChannelExecutor(unsigned num_workers, Options options);
  ~ChannelExecutor() override;

  ChannelExecutor(const ChannelExecutor&) = delete;
  ChannelExecutor& operator=(const ChannelExecutor&) = delete;

  ExecutorBackend backend() const noexcept override {
    return ExecutorBackend::kChannel;
  }
  const Options& options() const noexcept { return options_; }
  /// Current steal mode of worker `w` (racy read; exact when quiescent).
  StealMode steal_mode(unsigned w) const;

 private:
  struct StealRequest {
    std::uint32_t thief = 0;
    StealMode mode = StealMode::kOne;
  };

  struct StealReply {
    std::uint32_t count = 0;  ///< 0 = decline
    TaskId tasks[kMaxStealBatch] = {};
  };

  /// Plain (atomic-free) growable ring deque. Owner-only by construction:
  /// only the owning worker thread ever touches it, which is the whole
  /// point of the channel design — local scheduling costs zero
  /// synchronization.
  class PrivateDeque {
   public:
    bool empty() const noexcept { return head_ == tail_; }
    std::size_t size() const noexcept {
      return static_cast<std::size_t>(tail_ - head_);
    }
    void push_back(TaskId id) {
      if (size() == ring_.size()) grow();
      ring_[tail_ & mask_] = id;
      ++tail_;
    }
    bool pop_back(TaskId& out) noexcept {  // newest (LIFO for the owner)
      if (empty()) return false;
      --tail_;
      out = ring_[tail_ & mask_];
      return true;
    }
    bool pop_front(TaskId& out) noexcept {  // oldest (FIFO for thieves)
      if (empty()) return false;
      out = ring_[head_ & mask_];
      ++head_;
      return true;
    }

   private:
    void grow() {
      const std::size_t old_cap = ring_.size();
      const std::size_t new_cap = old_cap == 0 ? 64 : old_cap * 2;
      std::vector<TaskId> next(new_cap);
      const std::size_t n = size();
      for (std::size_t i = 0; i < n; ++i) {
        next[i] = ring_[(head_ + i) & mask_];
      }
      ring_ = std::move(next);
      mask_ = new_cap - 1;
      head_ = 0;
      tail_ = n;
    }
    std::vector<TaskId> ring_;
    std::size_t mask_ = 0;
    std::uint64_t head_ = 0;  ///< index of oldest element
    std::uint64_t tail_ = 0;  ///< one past newest
  };

  /// One worker's scheduling state, cacheline-isolated. The deques are
  /// private: only the owning worker thread reads or writes them. The
  /// atomics are the owner's advertisements to the rest of the pool.
  struct alignas(64) WorkerState {
    explicit WorkerState(std::uint64_t seed) : rng(seed) {}
    PrivateDeque ready;  ///< private; back = newest (LIFO for owner)
    /// Approximate deque size, advertised for parking re-checks (owner-
    /// written, relaxed).
    std::atomic<std::uint32_t> ready_size{0};
    void advertise_size() noexcept {
      ready_size.store(static_cast<std::uint32_t>(ready.size()),
                       std::memory_order_relaxed);
    }
    /// Incoming steal requests outstanding (thieves bump before sending,
    /// the owner decrements on consume) — O(1) "any requests?" check.
    std::atomic<std::uint32_t> pending_requests{0};
    Rng rng;
    ExecutorStats stats;
    /// Owner-adapted; atomic only so steal_mode() observers are race-free.
    std::atomic<StealMode> mode{StealMode::kOne};
    unsigned window_requests = 0;
    unsigned window_declines = 0;
    std::vector<std::uint32_t> victim_order;  ///< tree neighbours first
    unsigned tree_count = 0;  ///< leading tree-neighbour entries above
  };

  void worker_loop(unsigned self);
  void inject_ready(TaskId id, unsigned slot) override;
  void push_ready(TaskId id, unsigned self) override;
  ExecutorStats worker_snapshot(unsigned w) const override;

  bool try_get_task(unsigned self, TaskId& out);
  /// One full victim round over victim_order. True = `out` holds a task.
  bool steal_round(unsigned self, TaskId& out);
  /// Answer every pending incoming request (serve or decline). Called at
  /// scheduling boundaries, while idling, and while waiting for a reply
  /// (the latter breaks mutual-steal deadlocks: two workers requesting
  /// from each other both keep declining while they wait).
  void service_requests(unsigned self);
  void adapt_mode(WorkerState& ws, bool declined);
  bool any_work_visible() const;
  SpscChannel<StealRequest>& request_channel(unsigned victim, unsigned thief) {
    return *requests_[victim * num_workers_ + thief];
  }

  Options options_;
  std::vector<std::unique_ptr<WorkerState>> worker_state_;
  /// requests_[victim * n + thief]: thief -> victim, capacity 1 slot (a
  /// thief has at most one request in flight).
  std::vector<std::unique_ptr<SpscChannel<StealRequest>>> requests_;
  /// replies_[thief]: current victim -> thief. Single-consumer; the
  /// producer identity changes between requests, ordered by the protocol
  /// itself (see spsc_channel.hpp).
  std::vector<std::unique_ptr<SpscChannel<StealReply>>> replies_;
  /// Caller -> worker activation inboxes, one per worker.
  std::vector<std::unique_ptr<SpscChannel<TaskId>>> inbox_;
  std::vector<std::thread> workers_;
};

}  // namespace tahoe::task
