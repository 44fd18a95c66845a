// Shared surface of the real (wall-clock) task-graph executors.
//
// Two scheduling backends implement `IExecutor`:
//
//   * `Executor` (executor.hpp) — Chase–Lev lock-free deques, randomized
//     steal-one; thieves take directly from victims' shared deques.
//   * `ChannelExecutor` (channel_executor.hpp) — private per-worker
//     deques, explicit steal *requests* over bounded SPSC channels,
//     steal-half batches, worker-tree victim selection, and an adaptive
//     steal-one↔steal-half controller.
//
// `ExecutorBase` holds everything the backends share so that
// `run_real_report` and the tests observe identical semantics regardless
// of backend: the run() orchestration (predecessor counters with
// activation tokens, the sequential-phase group-barrier protocol,
// round-robin injection scatter with a cursor that persists across groups
// *and* runs), the task-body execution wrapper (tracing, error capture,
// successor release), and the stats aggregation/counter-flush pipeline.
// Backends only provide the worker loops and the two handoff primitives:
// `inject_ready` (caller → worker) and `push_ready` (worker → scheduler,
// for newly released successors).
//
// Each worker keeps one ready lane and one injection lane; the order among
// ready tasks does not depend on where their data lives, and need not: at
// each phase boundary `run_real_report` waits for every copy the group
// needs before the group's tasks become ready, and a copy still in flight
// moves a unit that no group between its trigger and its need references
// (the planner triggers each copy after the unit's last earlier reference).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "task/graph.hpp"

namespace tahoe::task {

/// Scheduler counters. `stats()` returns the totals across all workers and
/// runs; `worker_stats(w)` the per-worker breakdown. The last four fields
/// only move on the channel backend and stay zero on Chase–Lev.
struct ExecutorStats {
  std::uint64_t tasks_run = 0;      ///< tasks executed
  std::uint64_t pushes = 0;         ///< ready-task enqueues
  std::uint64_t pops = 0;           ///< tasks taken from the worker's own deque
  std::uint64_t steals = 0;         ///< tasks obtained from another worker
  std::uint64_t inject_takes = 0;   ///< tasks taken from an injection lane
  std::uint64_t failed_steals = 0;  ///< full victim scans that found nothing
  std::uint64_t parks = 0;          ///< times a worker blocked on the eventcount
  std::uint64_t steal_requests = 0; ///< explicit steal requests sent
  std::uint64_t steal_declines = 0; ///< requests answered with no work
  std::uint64_t steal_halves = 0;   ///< replies carrying more than one task
  std::uint64_t mode_switches = 0;  ///< adaptive steal-one<->steal-half flips
};

/// Eventcount: lets producers skip the kernel entirely while no consumer is
/// parked. Consumers prepare_wait(), re-check their condition, then either
/// cancel_wait() or commit_wait(); producers notify() after publishing
/// work. The seq_cst epoch bump in notify() orders the producer's work
/// publication before its waiter check, closing the classic lost-wakeup
/// window without a mutex on the fast path.
class EventCount {
 public:
  std::uint64_t prepare_wait() noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }
  void cancel_wait() noexcept {
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
  void commit_wait(std::uint64_t epoch) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, epoch] {
      return epoch_.load(std::memory_order_seq_cst) != epoch;
    });
    lock.unlock();
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
  void notify() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    {
      // Empty critical section: a waiter between its predicate check and
      // its block cannot miss the notify below.
      const std::lock_guard<std::mutex> lock(mutex_);
    }
    cv_.notify_all();
  }

 private:
  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<std::uint64_t> waiters_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

enum class ExecutorBackend : std::uint8_t {
  kChaseLev = 0,  ///< shared Chase–Lev deques, randomized steal-one
  kChannel = 1,   ///< private deques, SPSC steal requests, steal-half
};

/// "chaselev"/"channel" -> backend; nullopt on anything else.
std::optional<ExecutorBackend> parse_executor_backend(std::string_view name);
const char* to_string(ExecutorBackend backend) noexcept;

class IExecutor {
 public:
  virtual ~IExecutor() = default;

  /// Execute every task in the graph respecting dependences. Blocks until
  /// done. `on_group_start`, if provided, is invoked (on the caller
  /// thread, with no tasks of that or later groups running yet) right
  /// before the first task of each group becomes eligible — the hook the
  /// runtime uses to enforce placement at phase boundaries. When the hook
  /// is set, groups are executed as sequential phases (tasks of group g+1
  /// wait for group g), matching the paper's phase semantics; without it
  /// the DAG runs with maximum overlap.
  virtual void run(const TaskGraph& graph,
                   const std::function<void(GroupId)>& on_group_start = {}) = 0;

  virtual ExecutorBackend backend() const noexcept = 0;
  virtual unsigned num_workers() const noexcept = 0;
  virtual const ExecutorStats& stats() const noexcept = 0;
  /// Per-worker breakdown (totals across runs; snapshot). `w <
  /// num_workers()`.
  virtual ExecutorStats worker_stats(unsigned w) const = 0;
  /// How many group activations run() has scattered into each injection
  /// slot, per worker (caller-thread data, exact between runs). The
  /// round-robin cursor persists across groups and runs, so over many
  /// small groups the counts stay balanced — see the scatter-bias
  /// regression test.
  virtual std::vector<std::uint64_t> injection_slot_pushes() const = 0;
};

/// Factory: construct the requested backend with `num_workers` workers.
std::unique_ptr<IExecutor> make_executor(ExecutorBackend backend,
                                         unsigned num_workers);

namespace detail {

/// Single-writer counter bump, readable concurrently. atomic_ref keeps the
/// stats structs plain aggregates while making cross-thread snapshots
/// race-free; the owner-only load+store pair compiles to a plain add (no
/// lock prefix), unlike fetch_add.
inline void bump(std::uint64_t& counter, std::uint64_t delta = 1) noexcept {
  const std::atomic_ref<std::uint64_t> ref(counter);
  ref.store(ref.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
}

inline std::uint64_t peek(const std::uint64_t& counter) noexcept {
  // atomic_ref<const T> support is spotty in C++20 libraries; the cast is
  // sound because the ref is only ever used to load.
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(counter))
      .load(std::memory_order_relaxed);
}

ExecutorStats snapshot_stats(const ExecutorStats& s) noexcept;
void accumulate_stats(ExecutorStats& into, const ExecutorStats& s) noexcept;
void subtract_stats(ExecutorStats& from, const ExecutorStats& s) noexcept;

void cpu_relax() noexcept;
/// Exponential backoff: short pause bursts first, then scheduler yields.
void backoff(int round) noexcept;

/// Idle rescans before a worker parks; backoff doubles each round.
inline constexpr int kSpinRounds = 6;

}  // namespace detail

class ExecutorBase : public IExecutor {
 public:
  void run(const TaskGraph& graph,
           const std::function<void(GroupId)>& on_group_start = {}) final;

  unsigned num_workers() const noexcept final { return num_workers_; }
  const ExecutorStats& stats() const noexcept final { return stats_; }
  ExecutorStats worker_stats(unsigned w) const final;
  std::vector<std::uint64_t> injection_slot_pushes() const final;

 protected:
  explicit ExecutorBase(unsigned num_workers);

  // --- backend hooks -----------------------------------------------------
  /// Caller-thread activation handoff into the worker `slot`'s injection
  /// lane. Must wake a parked worker.
  virtual void inject_ready(TaskId id, unsigned slot) = 0;
  /// Worker-thread handoff of a newly released successor (called from
  /// execute_task on the releasing worker). Must wake a parked worker.
  virtual void push_ready(TaskId id, unsigned self) = 0;
  /// Owner-consistent snapshot of worker `w`'s counters.
  virtual ExecutorStats worker_snapshot(unsigned w) const = 0;

  // --- shared machinery for backends -------------------------------------
  /// Runs the task body (tracing + error capture), releases successors via
  /// push_ready, and signals the group barrier / run completion. Does NOT
  /// bump tasks_run — the backend's worker loop owns its stats.
  void execute_task(TaskId id, unsigned self);

  unsigned num_workers_ = 0;
  EventCount park_;  ///< idle workers sleep here; producers notify
  const TaskGraph* graph_ = nullptr;  ///< valid during run()
  std::atomic<std::uint32_t> remaining_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> run_active_{false};

 private:
  void flush_stats_to_counters(const ExecutorStats& delta) const;

  std::vector<std::atomic<std::uint32_t>> pending_preds_;
  /// Tasks left in the current group (phase mode) or in the whole graph;
  /// the counter run() waits on.
  std::atomic<std::uint32_t> barrier_remaining_{0};
  std::mutex run_mutex_;   ///< one run() at a time
  std::mutex done_mutex_;  ///< run() completion wait (cold path)
  std::condition_variable done_cv_;
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  /// Round-robin injection cursor. Deliberately NOT reset per group or per
  /// run: restarting at slot 0 for every group would pile the eligible
  /// tasks of many small groups onto workers 0..k (the scatter-bias bug
  /// this replaces).
  unsigned inject_cursor_ = 0;
  std::uint64_t caller_pushes_ = 0;  ///< injection pushes (caller thread)
  std::vector<std::uint64_t> inject_slot_pushes_;  ///< per-slot scatter tally
  ExecutorStats stats_;     ///< aggregate, refreshed after each run
  ExecutorStats reported_;  ///< totals already flushed to counters
};

}  // namespace tahoe::task
