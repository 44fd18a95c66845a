// Real (wall-clock) task-graph executor, Chase–Lev backend.
//
// Runs task functors on a pool of worker threads scheduled through
// per-worker Chase–Lev lock-free deques (ws_deque.hpp) with an
// eventcount-style parking protocol. This executor exists for
// *correctness*: examples and tests run real kernels through it (optionally
// interleaved with real migrations at group boundaries) and check numerical
// results. All reported *timings* in the benchmark harnesses come from the
// deterministic SimExecutor instead — see sim_executor.hpp. For the
// channel-based steal-half backend behind the same `IExecutor` interface,
// see channel_executor.hpp; executor_base.hpp documents what the backends
// share.
//
// Scheduling layout. Every worker owns one lock-free ready deque; the
// run() caller owns one *injection* deque per worker into which group
// activations are scattered round-robin (Chase–Lev push is owner-only, so
// the caller cannot push into a worker's own deque). A worker takes from
// its own deque, then its own injection slot, then steals from the other
// workers' deques and injection slots in a randomized rotation.
//
// Parking. An idle worker rescans with exponential backoff a few times,
// then registers as a waiter on the eventcount and re-verifies emptiness
// before blocking, so a concurrent push can never be lost. push_ready's
// hot path is one lock-free deque push plus one uncontended atomic
// bump-and-check — it never takes a mutex unless a worker is actually
// parked.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "task/executor_base.hpp"
#include "task/graph.hpp"
#include "task/ws_deque.hpp"

namespace tahoe::task {

class Executor final : public ExecutorBase {
 public:
  explicit Executor(unsigned num_workers);

  /// Joins the pool. The caller must guarantee no run() is in flight
  /// (single ownership); this is checked and reported as a contract
  /// violation. Parked workers are woken and drained deterministically.
  ~Executor() override;

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  ExecutorBackend backend() const noexcept override {
    return ExecutorBackend::kChaseLev;
  }

 private:
  /// One worker's scheduling state, cacheline-isolated.
  struct alignas(64) WorkerState {
    explicit WorkerState(std::uint64_t seed) : rng(seed) {}
    WsDeque<TaskId> ready;
    Rng rng;             ///< victim-rotation randomization (owner-only)
    ExecutorStats stats; ///< owner-written; read by run() when quiescent
  };

  void worker_loop(unsigned self);
  void inject_ready(TaskId id, unsigned slot) override;
  void push_ready(TaskId id, unsigned self) override;
  ExecutorStats worker_snapshot(unsigned w) const override;
  bool try_get_task(unsigned self, TaskId& out);
  bool any_work_visible() const;

  std::vector<std::unique_ptr<WorkerState>> worker_state_;
  /// Caller-owned activation deques, one per worker.
  std::vector<std::unique_ptr<WsDeque<TaskId>>> inject_;
  std::vector<std::thread> workers_;
};

}  // namespace tahoe::task
