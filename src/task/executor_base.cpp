#include "task/executor_base.hpp"

#include <thread>

#include "common/assert.hpp"
#include "task/channel_executor.hpp"
#include "task/executor.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tahoe::task {

namespace detail {

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

void backoff(int round) noexcept {
  if (round < 3) {
    for (int i = 0; i < (1 << round); ++i) cpu_relax();
  } else {
    std::this_thread::yield();
  }
}

ExecutorStats snapshot_stats(const ExecutorStats& s) noexcept {
  ExecutorStats out;
  out.tasks_run = peek(s.tasks_run);
  out.pushes = peek(s.pushes);
  out.pops = peek(s.pops);
  out.steals = peek(s.steals);
  out.inject_takes = peek(s.inject_takes);
  out.failed_steals = peek(s.failed_steals);
  out.parks = peek(s.parks);
  out.steal_requests = peek(s.steal_requests);
  out.steal_declines = peek(s.steal_declines);
  out.steal_halves = peek(s.steal_halves);
  out.mode_switches = peek(s.mode_switches);
  return out;
}

void accumulate_stats(ExecutorStats& into, const ExecutorStats& s) noexcept {
  into.tasks_run += s.tasks_run;
  into.pushes += s.pushes;
  into.pops += s.pops;
  into.steals += s.steals;
  into.inject_takes += s.inject_takes;
  into.failed_steals += s.failed_steals;
  into.parks += s.parks;
  into.steal_requests += s.steal_requests;
  into.steal_declines += s.steal_declines;
  into.steal_halves += s.steal_halves;
  into.mode_switches += s.mode_switches;
}

void subtract_stats(ExecutorStats& from, const ExecutorStats& s) noexcept {
  from.tasks_run -= s.tasks_run;
  from.pushes -= s.pushes;
  from.pops -= s.pops;
  from.steals -= s.steals;
  from.inject_takes -= s.inject_takes;
  from.failed_steals -= s.failed_steals;
  from.parks -= s.parks;
  from.steal_requests -= s.steal_requests;
  from.steal_declines -= s.steal_declines;
  from.steal_halves -= s.steal_halves;
  from.mode_switches -= s.mode_switches;
}

}  // namespace detail

std::optional<ExecutorBackend> parse_executor_backend(std::string_view name) {
  if (name == "chaselev") return ExecutorBackend::kChaseLev;
  if (name == "channel") return ExecutorBackend::kChannel;
  return std::nullopt;
}

const char* to_string(ExecutorBackend backend) noexcept {
  switch (backend) {
    case ExecutorBackend::kChaseLev: return "chaselev";
    case ExecutorBackend::kChannel: return "channel";
  }
  return "unknown";
}

std::unique_ptr<IExecutor> make_executor(ExecutorBackend backend,
                                         unsigned num_workers) {
  switch (backend) {
    case ExecutorBackend::kChaseLev:
      return std::make_unique<Executor>(num_workers);
    case ExecutorBackend::kChannel:
      return std::make_unique<ChannelExecutor>(num_workers);
  }
  TAHOE_REQUIRE(false, "unknown executor backend");
  return nullptr;
}

ExecutorBase::ExecutorBase(unsigned num_workers) : num_workers_(num_workers) {
  TAHOE_REQUIRE(num_workers >= 1, "executor needs at least one worker");
  inject_slot_pushes_.assign(num_workers, 0);
}

ExecutorStats ExecutorBase::worker_stats(unsigned w) const {
  TAHOE_REQUIRE(w < num_workers_, "worker index out of range");
  return worker_snapshot(w);
}

std::vector<std::uint64_t> ExecutorBase::injection_slot_pushes() const {
  return inject_slot_pushes_;
}

void ExecutorBase::execute_task(TaskId id, unsigned self) {
  const Task& t = graph_->task(id);
  trace::Tracer& tracer = trace::global();
  const bool traced = tracer.enabled();
  const bool hist = trace::histograms_enabled();
  const double begin = (traced || hist) ? trace::now_seconds() : 0.0;
  if (t.work) {
    try {
      t.work();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
  if (traced || hist) {
    const double dur = trace::now_seconds() - begin;
    if (traced) {
      tracer.complete(self, t.label.empty() ? "task" : t.label.c_str(), begin,
                      dur, "task", id, "group", t.group);
    }
    if (hist) {
      static trace::Histogram& task_seconds =
          trace::global_counters().histogram("executor.task_seconds");
      task_seconds.record_seconds(dur);
    }
  }
  // Completion: release successors. Every task starts with an extra
  // "activation token" on top of its predecessor count (see run()), so a
  // task is pushed exactly once — by whichever decrement (the last
  // predecessor or its group's activation) brings the counter to zero.
  // This avoids the double-release race between the activation scan and
  // concurrent completions.
  for (TaskId succ : graph_->successors(id)) {
    if (pending_preds_[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      push_ready(succ, self);
    }
  }
  // remaining_ drops first and the barrier last, and run() waits on the
  // barrier alone: once it reads zero, every task it covers has left
  // remaining_ too (the final outstanding-task check cannot count a task
  // that already ran), and no decrement of this run is still to land on
  // the counters of the next.
  remaining_.fetch_sub(1, std::memory_order_acq_rel);
  if (barrier_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    {
      // Empty critical section pairs with run()'s predicate check under
      // done_mutex_ so the notify cannot be lost.
      const std::lock_guard<std::mutex> lock(done_mutex_);
    }
    done_cv_.notify_all();
  }
}

void ExecutorBase::flush_stats_to_counters(const ExecutorStats& delta) const {
  trace::CounterRegistry& reg = trace::global_counters();
  reg.get("executor.tasks").add(delta.tasks_run);
  reg.get("executor.pushes").add(delta.pushes);
  reg.get("executor.pops").add(delta.pops);
  reg.get("executor.steals").add(delta.steals);
  reg.get("executor.inject_takes").add(delta.inject_takes);
  reg.get("executor.steals_failed").add(delta.failed_steals);
  reg.get("executor.parks").add(delta.parks);
  reg.get("executor.steal_requests").add(delta.steal_requests);
  reg.get("executor.steal_declines").add(delta.steal_declines);
  reg.get("executor.steal_halves").add(delta.steal_halves);
  reg.get("executor.mode_switches").add(delta.mode_switches);
}

void ExecutorBase::run(const TaskGraph& graph,
                       const std::function<void(GroupId)>& on_group_start) {
  const std::lock_guard<std::mutex> run_lock(run_mutex_);
  TAHOE_REQUIRE(graph.num_tasks() > 0, "empty graph");
  run_active_.store(true, std::memory_order_release);
  graph_ = &graph;
  first_error_ = nullptr;

  const std::size_t n = graph.num_tasks();
  // (Re)build the pred counters, each holding one extra activation token.
  pending_preds_ = std::vector<std::atomic<std::uint32_t>>(n);
  for (TaskId id = 0; id < n; ++id) {
    pending_preds_[id].store(graph.num_predecessors(id) + 1,
                             std::memory_order_relaxed);
  }
  remaining_.store(static_cast<std::uint32_t>(n), std::memory_order_release);

  // Hand every task of [first, last) its activation token, then scatter the
  // ones that reached zero round-robin over the injection slots, in index
  // order. No task is injected before every token is in, so none can
  // complete and release a successor that still holds its token: such a
  // successor would be injected here, out of the workers' own push order.
  // The cursor is a member so the rotation continues where the previous
  // group (or run) left off.
  std::vector<TaskId> ready;
  const auto activate = [this, &ready](TaskId first, TaskId last) {
    ready.clear();
    for (TaskId id = first; id < last; ++id) {
      if (pending_preds_[id].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ready.push_back(id);
      }
    }
    for (const TaskId id : ready) {
      const unsigned slot = inject_cursor_;
      inject_cursor_ = (inject_cursor_ + 1) % num_workers_;
      ++caller_pushes_;
      ++inject_slot_pushes_[slot];
      inject_ready(id, slot);
    }
  };

  const auto wait_barrier = [this] {
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this] {
      return barrier_remaining_.load(std::memory_order_acquire) == 0;
    });
  };
  const bool phase_mode = static_cast<bool>(on_group_start);
  if (phase_mode) {
    // Sequential phases: activate one group at a time.
    for (GroupId g = 0; g < graph.num_groups(); ++g) {
      const Group& grp = graph.group(g);
      on_group_start(g);
      barrier_remaining_.store(static_cast<std::uint32_t>(grp.size()),
                               std::memory_order_release);
      activate(grp.first_task, grp.last_task);
      wait_barrier();
    }
  } else {
    // One barrier over the whole graph.
    barrier_remaining_.store(static_cast<std::uint32_t>(n),
                             std::memory_order_release);
    activate(0, static_cast<TaskId>(n));
    wait_barrier();
  }

  TAHOE_ASSERT(remaining_.load(std::memory_order_acquire) == 0,
               "run finished with tasks outstanding");
  // Refresh the aggregate stats and flush the delta since the previous
  // run into the global counter registry.
  ExecutorStats total;
  for (unsigned w = 0; w < num_workers_; ++w) {
    detail::accumulate_stats(total, worker_snapshot(w));
  }
  total.pushes += caller_pushes_;
  ExecutorStats delta = total;
  detail::subtract_stats(delta, reported_);
  flush_stats_to_counters(delta);
  reported_ = total;
  stats_ = total;
  graph_ = nullptr;
  run_active_.store(false, std::memory_order_release);
  if (first_error_) std::rethrow_exception(first_error_);
}

}  // namespace tahoe::task
