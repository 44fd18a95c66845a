#include "task/channel_executor.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "trace/counters.hpp"
#include "trace/trace.hpp"

namespace tahoe::task {

using detail::bump;

namespace {

/// Decline rates that switch a worker to steal-half (above) and back to
/// steal-one (below); see adapt_mode().
constexpr double kHalfThreshold = 0.5;
constexpr double kOneThreshold = 0.25;

}  // namespace

ChannelExecutor::ChannelExecutor(unsigned num_workers, Options options)
    : ExecutorBase(num_workers), options_(options) {
  TAHOE_REQUIRE(options_.adapt_window >= 1, "adapt window must be >= 1");
  worker_state_.reserve(num_workers);
  requests_.reserve(static_cast<std::size_t>(num_workers) * num_workers);
  replies_.reserve(num_workers);
  inbox_.reserve(num_workers);
  for (unsigned w = 0; w < num_workers; ++w) {
    // Deterministic per-worker seeds: only the victim rotation uses them.
    auto ws = std::make_unique<WorkerState>(0xc4a7e1 + w);
    ws->mode.store(options_.initial_mode, std::memory_order_relaxed);
    // Victim order: worker-tree neighbours first (parent and children of
    // this worker's node in the implicit binary tree over worker ids), so
    // steal traffic diffuses work between neighbours before going global;
    // the remaining workers follow in a rotation randomized per scan.
    std::vector<bool> in_tree(num_workers, false);
    in_tree[w] = true;
    const auto add_neighbour = [&](unsigned v) {
      if (v < num_workers && !in_tree[v]) {
        ws->victim_order.push_back(v);
        in_tree[v] = true;
      }
    };
    if (w > 0) add_neighbour((w - 1) / 2);
    add_neighbour(2 * w + 1);
    add_neighbour(2 * w + 2);
    ws->tree_count = static_cast<unsigned>(ws->victim_order.size());
    for (unsigned v = 0; v < num_workers; ++v) {
      if (!in_tree[v]) ws->victim_order.push_back(v);
    }
    worker_state_.push_back(std::move(ws));
  }
  for (unsigned v = 0; v < num_workers; ++v) {
    for (unsigned t = 0; t < num_workers; ++t) {
      // One slot per (victim, thief) pair: a thief never has more than one
      // request in flight.
      requests_.push_back(std::make_unique<SpscChannel<StealRequest>>(1));
    }
  }
  for (unsigned w = 0; w < num_workers; ++w) {
    replies_.push_back(std::make_unique<SpscChannel<StealReply>>(2));
    inbox_.push_back(
        std::make_unique<SpscChannel<TaskId>>(options_.inbox_capacity));
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

ChannelExecutor::~ChannelExecutor() {
  if (run_active_.load(std::memory_order_acquire)) {
    TAHOE_WARN("ChannelExecutor destroyed while run() is in flight — the "
               "executor must be owned (and outlived) by its running thread");
  }
  // seq_cst store + eventcount bump: every worker either sees stop_ on its
  // pre-park re-check or gets the wakeup; thieves blocked waiting for a
  // steal reply poll stop_ and abandon the request.
  stop_.store(true, std::memory_order_seq_cst);
  park_.notify();
  for (std::thread& t : workers_) t.join();
}

ExecutorStats ChannelExecutor::worker_snapshot(unsigned w) const {
  return detail::snapshot_stats(worker_state_[w]->stats);
}

StealMode ChannelExecutor::steal_mode(unsigned w) const {
  TAHOE_REQUIRE(w < num_workers_, "worker index out of range");
  return worker_state_[w]->mode.load(std::memory_order_relaxed);
}

void ChannelExecutor::inject_ready(TaskId id, unsigned slot) {
  SpscChannel<TaskId>& inbox = *inbox_[slot];
  int spin = 0;
  // A full inbox means the slot's owner is behind; keep nudging it awake
  // and yield. Progress is guaranteed: the owner drains its inbox at every
  // scheduling boundary and victims serve inbox tasks to thieves.
  while (!inbox.try_send(id)) {
    park_.notify();
    detail::backoff(std::min(spin++, 4));
  }
  park_.notify();
}

void ChannelExecutor::push_ready(TaskId id, unsigned self) {
  WorkerState& ws = *worker_state_[self];
  ws.ready.push_back(id);
  ws.advertise_size();
  bump(ws.stats.pushes);
  park_.notify();
}

void ChannelExecutor::service_requests(unsigned self) {
  WorkerState& ws = *worker_state_[self];
  if (ws.pending_requests.load(std::memory_order_acquire) == 0) return;
  for (unsigned t = 0; t < num_workers_; ++t) {
    if (t == self) continue;
    StealRequest req;
    while (request_channel(self, t).try_recv(req)) {
      ws.pending_requests.fetch_sub(1, std::memory_order_acq_rel);
      StealReply rep;
      SpscChannel<TaskId>& inbox = *inbox_[self];
      // Steal-half takes half of the visible lane (deque + own inbox),
      // oldest tasks first — the ones farthest from this worker's current
      // working set; steal-one takes a single task. An empty lane replies
      // with no tasks: a decline.
      const std::size_t visible = ws.ready.size() + inbox.size_approx();
      std::size_t want = 1;
      if (req.mode == StealMode::kHalf) {
        want = std::min<std::size_t>((visible + 1) / 2, kMaxStealBatch);
        want = std::max<std::size_t>(want, 1);
      }
      while (rep.count < want) {
        TaskId id = 0;
        if (ws.ready.pop_front(id)) {
          rep.tasks[rep.count++] = id;
          continue;
        }
        if (inbox.try_recv(id)) {
          rep.tasks[rep.count++] = id;
          continue;
        }
        break;
      }
      ws.advertise_size();
      const bool ok = replies_[req.thief]->try_send(rep);
      TAHOE_ASSERT(ok, "steal reply channel overflow");
    }
  }
}

void ChannelExecutor::adapt_mode(WorkerState& ws, bool declined) {
  if (!options_.adaptive) return;
  ++ws.window_requests;
  if (declined) ++ws.window_declines;
  if (ws.window_requests < options_.adapt_window) return;
  const double rate = static_cast<double>(ws.window_declines) /
                      static_cast<double>(ws.window_requests);
  const StealMode mode = ws.mode.load(std::memory_order_relaxed);
  // High decline rate = work is scarce and fragmented: when a steal does
  // land, grab half the victim's lane so this worker stops re-stealing
  // (and stops flooding the pool with requests). Low decline rate = work
  // is plentiful: steal-one keeps it spread across workers. The band in
  // between is hysteresis.
  if (mode == StealMode::kOne && rate > kHalfThreshold) {
    ws.mode.store(StealMode::kHalf, std::memory_order_relaxed);
    bump(ws.stats.mode_switches);
  } else if (mode == StealMode::kHalf && rate < kOneThreshold) {
    ws.mode.store(StealMode::kOne, std::memory_order_relaxed);
    bump(ws.stats.mode_switches);
  }
  ws.window_requests = 0;
  ws.window_declines = 0;
}

bool ChannelExecutor::steal_round(unsigned self, TaskId& out) {
  WorkerState& ws = *worker_state_[self];
  const auto& order = ws.victim_order;
  if (order.empty()) return false;
  const unsigned tree_n = ws.tree_count;
  const auto rest = static_cast<unsigned>(order.size()) - tree_n;
  const unsigned offset =
      rest > 1 ? static_cast<unsigned>(ws.rng.next_below(rest)) : 0;
  for (unsigned i = 0; i < order.size(); ++i) {
    // Tree neighbours in fixed order, then the rest rotated randomly.
    const unsigned victim =
        i < tree_n ? order[i] : order[tree_n + (i - tree_n + offset) % rest];
    if (remaining_.load(std::memory_order_acquire) == 0) return false;
    WorkerState& vs = *worker_state_[victim];
    StealRequest req;
    req.thief = self;
    req.mode = ws.mode.load(std::memory_order_relaxed);
    // Advertise before sending so the victim's pre-park re-check cannot
    // miss the request, then wake it if it is already parked.
    vs.pending_requests.fetch_add(1, std::memory_order_seq_cst);
    const bool sent = request_channel(victim, self).try_send(req);
    TAHOE_ASSERT(sent, "steal request channel overflow");
    park_.notify();
    bump(ws.stats.steal_requests);
    StealReply rep;
    int spin = 0;
    for (;;) {
      if (replies_[self]->try_recv(rep)) break;
      // Answer our own incoming requests while waiting: two workers
      // requesting from each other must both keep declining or they
      // deadlock.
      service_requests(self);
      if (stop_.load(std::memory_order_acquire)) return false;
      detail::backoff(std::min(spin++, 4));
    }
    if (rep.count == 0) {
      bump(ws.stats.steal_declines);
      adapt_mode(ws, /*declined=*/true);
      continue;
    }
    adapt_mode(ws, /*declined=*/false);
    if (rep.count > 1) bump(ws.stats.steal_halves);
    // Run the oldest task now; the rest of the batch joins this worker's
    // private deque (counted as pushes, popped later as pops).
    out = rep.tasks[0];
    if (rep.count > 1) {
      for (std::uint32_t k = 1; k < rep.count; ++k) {
        ws.ready.push_back(rep.tasks[k]);
      }
      ws.advertise_size();
      bump(ws.stats.pushes, rep.count - 1);
    }
    bump(ws.stats.steals);
    trace::Tracer& tracer = trace::global();
    if (tracer.enabled()) {
      tracer.instant(self, "steal", trace::now_seconds(), "victim", victim);
    }
    return true;
  }
  return false;
}

bool ChannelExecutor::try_get_task(unsigned self, TaskId& out) {
  WorkerState& ws = *worker_state_[self];
  // 1. Own deque (LIFO for locality), then own inbox (group activations).
  if (ws.ready.pop_back(out)) {
    ws.advertise_size();
    bump(ws.stats.pops);
    return true;
  }
  if (inbox_[self]->try_recv(out)) {
    bump(ws.stats.inject_takes);
    return true;
  }
  // 2. Ask the other workers. Only while a run is in flight: idle thieves
  // between runs would otherwise storm the request channels.
  const bool active = remaining_.load(std::memory_order_acquire) != 0;
  const bool can_steal = num_workers_ > 1 && active;
  if (can_steal && steal_round(self, out)) return true;
  // A failed steal requires real victim scans — single-worker pools and
  // idle spins between runs never scanned anyone.
  if (can_steal) bump(ws.stats.failed_steals);
  return false;
}

bool ChannelExecutor::any_work_visible() const {
  for (unsigned w = 0; w < num_workers_; ++w) {
    const WorkerState& ws = *worker_state_[w];
    if (ws.ready_size.load(std::memory_order_acquire) != 0) return true;
    if (!inbox_[w]->empty_approx()) return true;
  }
  return false;
}

void ChannelExecutor::worker_loop(unsigned self) {
  WorkerState& ws = *worker_state_[self];
  int idle_rounds = 0;
  for (;;) {
    // Victim half of the protocol first: answering at every scheduling
    // boundary bounds how long a thief spins on its reply channel by one
    // task execution.
    service_requests(self);
    TaskId id = 0;
    if (try_get_task(self, id)) {
      idle_rounds = 0;
      // Count before executing: execute_task's barrier decrement is what
      // releases run()'s stats aggregation, so a bump after it could be
      // missed by the snapshot of the run that this task completes.
      bump(ws.stats.tasks_run);
      execute_task(id, self);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Final drain: decline whatever raced in so no thief waits on a
      // reply from an exited worker (thieves also poll stop_).
      service_requests(self);
      return;
    }
    if (idle_rounds < detail::kSpinRounds) {
      detail::backoff(idle_rounds++);
      continue;
    }
    idle_rounds = 0;
    // Park. prepare_wait() registers us as a waiter *before* the re-check,
    // so a concurrent inject/push/steal-request is guaranteed to either
    // show up in the check below or bump the epoch and wake us.
    const std::uint64_t epoch = park_.prepare_wait();
    if (stop_.load(std::memory_order_acquire) ||
        ws.pending_requests.load(std::memory_order_acquire) != 0 ||
        any_work_visible()) {
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
