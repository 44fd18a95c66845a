#include "serve/driver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "serve/request.hpp"
#include "task/sim_executor.hpp"
#include "trace/counters.hpp"
#include "trace/histogram.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

namespace tahoe::serve {
namespace {

/// Requests one tenant may dispatch per epoch; the rest wait in its queue.
constexpr std::size_t kMaxBatch = 64;

/// Per-tenant mutable serving state. Histograms hold atomics, so the state
/// lives behind unique_ptr.
struct TenantState {
  std::unique_ptr<OpenLoopSource> source;
  std::unique_ptr<Rng> work_rng;
  std::deque<Request> queue;
  std::uint64_t completed = 0;
  trace::Histogram request_latency;
  trace::Histogram queue_wait;
  trace::Histogram service_time;
  /// Registry-side mirrors (tenant-labeled, visible to trace exports);
  /// null when histograms are globally disabled.
  trace::Histogram* global_request = nullptr;
  trace::Histogram* global_queue = nullptr;
  trace::Histogram* global_service = nullptr;
  /// Per-tenant queue-depth gauge, sampled once per epoch; registered
  /// only while the telemetry sampler is armed, so non-telemetry runs
  /// leave the registry untouched.
  trace::Counter* queue_depth = nullptr;
};

void record(trace::Histogram& local, trace::Histogram* global,
            double seconds) {
  local.record_seconds(seconds);
  if (global != nullptr) global->record_seconds(seconds);
}

}  // namespace

ServeResult run_serve(TenantManager& manager, const ServeOptions& options) {
  TAHOE_REQUIRE(manager.size() > 0, "run_serve needs at least one tenant");
  // The epoch loop ends only when a finite clock passes a finite horizon.
  TAHOE_REQUIRE(std::isfinite(options.duration_seconds) &&
                    options.duration_seconds > 0.0,
                "serve duration must be finite and positive");
  TAHOE_REQUIRE(
      std::isfinite(options.epoch_seconds) && options.epoch_seconds > 0.0,
      "epoch must be finite and positive");
  const memsim::Machine& machine = manager.machine();

  ServeResult result;
  const auto t_plan = std::chrono::steady_clock::now();
  result.plan = manager.plan(options.enforce_quotas);
  hms::PlacementMap placement;
  manager.apply(result.plan, placement);
  const double plan_seconds =
      options.deterministic
          ? 0.0
          : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t_plan)
                .count();

  // Dispatch order: priority descending, registration order breaking ties.
  // The order is identical with and without quota enforcement, so QoS
  // comparisons isolate the placement difference.
  std::vector<std::size_t> order(manager.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return manager.tenant(a).priority >
                            manager.tenant(b).priority;
                   });

  trace::TelemetrySampler* const sampler =
      trace::telemetry().enabled() ? &trace::telemetry() : nullptr;

  std::vector<std::unique_ptr<TenantState>> states;
  for (std::size_t i = 0; i < manager.size(); ++i) {
    const TenantConfig& cfg = manager.tenant(i);
    auto st = std::make_unique<TenantState>();
    st->source = std::make_unique<OpenLoopSource>(
        static_cast<std::uint32_t>(i), cfg.arrival_hz, cfg.seed);
    st->work_rng = std::make_unique<Rng>(cfg.seed ^ 0x5eedf0c1a11eau);
    if (sampler != nullptr) {
      st->queue_depth = &trace::global_counters().gauge(
          "serve." + cfg.name + ".queue_depth");
    }
    if (trace::histograms_enabled()) {
      trace::CounterRegistry& reg = trace::global_counters();
      st->global_request =
          &reg.histogram("serve." + cfg.name + ".request_ns");
      st->global_queue = &reg.histogram("serve." + cfg.name + ".queue_ns");
      st->global_service =
          &reg.histogram("serve." + cfg.name + ".service_ns");
    }
    states.push_back(std::move(st));
  }

  core::RunReport& report = result.report;
  report.workload = "serve";
  report.policy = options.enforce_quotas ? "tenant-qos" : "quota-free";
  report.strategy = options.enforce_quotas ? "priority-rows" : "shared";
  for (std::size_t t = 0; t < machine.num_tiers(); ++t) {
    report.tier_names.push_back(
        machine.tier(static_cast<memsim::TierId>(t)).name);
  }
  report.decision_seconds = plan_seconds;
  report.overhead_seconds = plan_seconds;

  if (sampler != nullptr) {
    sampler->begin_run("serve:" + report.policy);
  }

  trace::Tracer* tracer = nullptr;
  if (trace::global().enabled()) {
    tracer = &trace::global();
    trace::name_standard_tracks(options.workers != 0 ? options.workers
                                                     : machine.workers);
  }
  task::SimExecutor executor;
  task::SimExecutor::Options sim_opts;
  sim_opts.workers = options.workers;
  sim_opts.unit_size = [&manager](hms::ObjectId id, std::size_t chunk) {
    return manager.unit_bytes(id, chunk);
  };
  sim_opts.tracer = tracer;
  // Per-epoch storage, kept from one epoch to the next: the arrivals
  // drained, one batch slot per tenant (the first num_batches in use), the
  // (batch, position) of each request tag, each request's service time,
  // and the last epoch's graph, whose arrays the next declaration reuses.
  struct Batch {
    std::size_t tenant = 0;
    std::size_t group = 0;
    std::vector<Request> requests;
  };
  std::vector<Request> arrivals;
  std::vector<Batch> batches(manager.size());
  std::vector<std::pair<std::size_t, std::size_t>> tag_slot;
  std::vector<double> service_of;
  task::TaskGraph graph;
  std::uint64_t next_tag = 0;
  double clock = 0.0;
  while (clock < options.duration_seconds) {
    for (auto& st : states) {
      arrivals.clear();
      st->source->drain_until(clock, arrivals);
      // One at a time: a range insert into an empty deque allocates a
      // block at its front every time, which is most epochs.
      for (const Request& r : arrivals) st->queue.push_back(r);
      if (st->queue_depth != nullptr) {
        st->queue_depth->set(static_cast<std::uint64_t>(st->queue.size()));
      }
    }
    // Epoch boundary tick: the executor advances the sampler inside busy
    // epochs (same clock base — trace_time_offset is `clock`), but
    // empty-batch epochs would otherwise leave gaps in the series.
    if (sampler != nullptr) sampler->advance_virtual(clock);

    // An epoch with nothing queued only moves the clock.
    if (std::all_of(states.begin(), states.end(),
                    [](const auto& st) { return st->queue.empty(); })) {
      clock += options.epoch_seconds;
      continue;
    }

    // Batch this epoch: one group per tenant with queued work, highest
    // priority dispatched first.
    std::size_t num_batches = 0;
    task::GraphBuilder builder(std::move(graph));
    tag_slot.clear();
    for (const std::size_t i : order) {
      TenantState& st = *states[i];
      if (st.queue.empty()) continue;
      Batch& b = batches[num_batches];
      b.tenant = i;
      b.group = builder.begin_group(manager.tenant(i).name);
      b.requests.clear();
      while (!st.queue.empty() && b.requests.size() < kMaxBatch) {
        Request r = st.queue.front();
        st.queue.pop_front();
        manager.tenant(i).service->append_request(builder, next_tag++,
                                                  *st.work_rng);
        tag_slot.emplace_back(num_batches, b.requests.size());
        b.requests.push_back(r);
      }
      ++num_batches;
    }

    graph = builder.build();
    sim_opts.trace_time_offset = clock;
    const task::SimReport& sim =
        executor.run(graph, machine, placement, {}, sim_opts);

    // Per-request service time via the request tags the services stamped.
    const std::uint64_t epoch_base = next_tag - tag_slot.size();
    service_of.assign(tag_slot.size(), 0.0);
    for (const task::Task& t : graph.tasks()) {
      if (t.request == task::kNoRequest) continue;
      TAHOE_ASSERT(t.request >= epoch_base &&
                       t.request - epoch_base < service_of.size(),
                   "request tag outside this epoch");
      service_of[t.request - epoch_base] += sim.task_seconds[t.id];
    }

    for (std::size_t s = 0; s < tag_slot.size(); ++s) {
      const auto [bi, pos] = tag_slot[s];
      const Batch& b = batches[bi];
      TenantState& st = *states[b.tenant];
      const Request& r = b.requests[pos];
      const double start = clock + sim.group_start[b.group];
      const double done =
          clock + sim.group_start[b.group] + sim.group_seconds[b.group];
      record(st.queue_wait, st.global_queue, start - r.arrival);
      record(st.request_latency, st.global_request, done - r.arrival);
      record(st.service_time, st.global_service, service_of[s]);
      ++st.completed;
    }

    report.iteration_seconds.push_back(sim.makespan);
    report.compute_seconds += sim.makespan;
    report.tasks_executed += graph.num_tasks();
    // Open loop: a saturated epoch pushes the clock past its quantum and
    // the backlog grows — the overload signature.
    clock += std::max(options.epoch_seconds, sim.makespan);
  }

  // Whatever arrived before the horizon but never got served counts as
  // dropped (still queued at shutdown).
  for (auto& st : states) {
    arrivals.clear();
    st->source->drain_until(options.duration_seconds, arrivals);
    st->queue.insert(st->queue.end(), arrivals.begin(), arrivals.end());
  }

  const hms::ObjectRegistry& registry = manager.registry();
  const hms::MigrationStats& stats = registry.stats();
  report.migrations = stats.migrations;
  report.bytes_moved = stats.bytes_moved;
  report.failed_no_space = stats.failed_no_space;
  const auto fast = static_cast<memsim::DeviceId>(machine.fastest_tier());
  for (std::size_t i = 0; i < manager.size(); ++i) {
    const TenantConfig& cfg = manager.tenant(i);
    const TenantState& st = *states[i];
    core::TenantReportRow row;
    row.name = cfg.name;
    row.priority = cfg.priority;
    row.quota_bytes = result.plan.quota_bytes[i];
    row.fast_bytes =
        registry.resident_bytes_owned(static_cast<hms::OwnerId>(i), fast);
    row.total_bytes = registry.total_bytes_owned(static_cast<hms::OwnerId>(i));
    row.requests = st.completed;
    row.dropped = st.queue.size();
    row.request_latency = st.request_latency.snapshot();
    row.queue_wait = st.queue_wait.snapshot();
    row.service_time = st.service_time.snapshot();
    report.tenants.push_back(std::move(row));
  }
  return result;
}

}  // namespace tahoe::serve
