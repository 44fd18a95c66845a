#include "task/executor.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

namespace tahoe::task {

using detail::bump;

Executor::Executor(unsigned num_workers) : ExecutorBase(num_workers) {
  worker_state_.reserve(num_workers);
  inject_.reserve(num_workers);
  for (unsigned w = 0; w < num_workers; ++w) {
    // Deterministic per-worker seeds: only the victim rotation uses them.
    worker_state_.push_back(std::make_unique<WorkerState>(0x7a40e + w));
    inject_.push_back(std::make_unique<WsDeque<TaskId>>());
  }
  workers_.reserve(num_workers);
  for (unsigned w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  if (trace::global().enabled()) {
    for (unsigned w = 0; w < num_workers; ++w) {
      trace::global().set_track_name(w, "worker " + std::to_string(w));
    }
  }
}

Executor::~Executor() {
  // Single ownership: destroying the executor while another thread is
  // inside run() races the graph state. Warn loudly (throwing from a
  // destructor would terminate) and still drain what we can.
  if (run_active_.load(std::memory_order_acquire)) {
    TAHOE_WARN("Executor destroyed while run() is in flight — the executor "
               "must be owned (and outlived) by its running thread");
  }
  // The seq_cst store orders before the eventcount epoch bump inside
  // notify(), so a worker that re-verifies emptiness before blocking
  // either sees stop_ set or gets the epoch-change wakeup — parked workers
  // drain deterministically.
  stop_.store(true, std::memory_order_seq_cst);
  park_.notify();
  for (std::thread& t : workers_) t.join();
}

ExecutorStats Executor::worker_snapshot(unsigned w) const {
  return detail::snapshot_stats(worker_state_[w]->stats);
}

void Executor::push_ready(TaskId id, unsigned self) {
  WorkerState& ws = *worker_state_[self];
  ws.ready.push(id);
  bump(ws.stats.pushes);
  park_.notify();
}

void Executor::inject_ready(TaskId id, unsigned slot) {
  inject_[slot]->push(id);
  park_.notify();
}

bool Executor::try_get_task(unsigned self, TaskId& out) {
  WorkerState& ws = *worker_state_[self];
  // 1. Own deque (LIFO for locality).
  if (ws.ready.pop(out)) {
    bump(ws.stats.pops);
    return true;
  }
  // 2. Own injection slot: group activations scattered to this worker.
  if (inject_[self]->steal(out)) {
    bump(ws.stats.inject_takes);
    return true;
  }
  // 3. Steal from the others, randomized rotation.
  const unsigned n = num_workers_;
  const unsigned start = n > 1 ? static_cast<unsigned>(ws.rng.next_below(n)) : 0;
  for (unsigned k = 0; k < n; ++k) {
    const unsigned v = (start + k) % n;
    if (v == self) continue;
    if (worker_state_[v]->ready.steal(out)) {
      bump(ws.stats.steals);
      trace::Tracer& tracer = trace::global();
      if (tracer.enabled()) {
        tracer.instant(self, "steal", trace::now_seconds(), "victim", v);
      }
      return true;
    }
    if (inject_[v]->steal(out)) {
      bump(ws.stats.inject_takes);
      return true;
    }
  }
  // A "failed steal" requires an actual victim scan: with one worker there
  // are no victims, so an empty round is just an idle spin, not a steal
  // that failed (counting those inflated executor.steals_failed on
  // single-worker runs).
  if (n > 1) bump(ws.stats.failed_steals);
  return false;
}

bool Executor::any_work_visible() const {
  for (unsigned w = 0; w < num_workers_; ++w) {
    if (!worker_state_[w]->ready.empty_approx()) return true;
    if (!inject_[w]->empty_approx()) return true;
  }
  return false;
}

void Executor::worker_loop(unsigned self) {
  WorkerState& ws = *worker_state_[self];
  int idle_rounds = 0;
  // Work-hunt latency: first failed acquisition attempt -> next success.
  // Negative = not hunting. Only measured when histograms are on, so the
  // idle spin path stays clock-free by default.
  double hunt_begin = -1.0;
  for (;;) {
    TaskId id = 0;
    if (try_get_task(self, id)) {
      if (hunt_begin >= 0.0) {
        static trace::Histogram& steal_latency =
            trace::global_counters().histogram(
                "executor.steal_latency_seconds");
        steal_latency.record_seconds(trace::now_seconds() - hunt_begin);
        hunt_begin = -1.0;
      }
      idle_rounds = 0;
      // Count before executing: execute_task's barrier decrement is what
      // releases run()'s stats aggregation, so a bump after it could be
      // missed by the snapshot of the run that this task completes.
      bump(ws.stats.tasks_run);
      execute_task(id, self);
      continue;
    }
    if (hunt_begin < 0.0 && trace::histograms_enabled()) {
      hunt_begin = trace::now_seconds();
    }
    if (stop_.load(std::memory_order_acquire)) return;
    if (idle_rounds < detail::kSpinRounds) {
      detail::backoff(idle_rounds++);
      continue;
    }
    idle_rounds = 0;
    // Park. prepare_wait() registers us as a waiter *before* the
    // emptiness re-check, so a push that lands in between is guaranteed
    // to bump the epoch and either abort the commit or wake us.
    const std::uint64_t epoch = park_.prepare_wait();
    if (stop_.load(std::memory_order_acquire) || any_work_visible()) {
      park_.cancel_wait();
      continue;
    }
    bump(ws.stats.parks);
    if (trace::histograms_enabled()) {
      const double park_begin = trace::now_seconds();
      park_.commit_wait(epoch);
      static trace::Histogram& park_seconds =
          trace::global_counters().histogram("executor.park_seconds");
      park_seconds.record_seconds(trace::now_seconds() - park_begin);
    } else {
      park_.commit_wait(epoch);
    }
  }
}

}  // namespace tahoe::task
