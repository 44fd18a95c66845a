// Per-layer metrics of tahoe_perf's traced runs. Each probe times calls
// into one layer's public functions on seeded inputs; README.md maps every
// metric to the end-to-end metric and workload it should move.
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "core/knapsack.hpp"
#include "core/profiles.hpp"
#include "hms/arena.hpp"
#include "hms/migration.hpp"
#include "hms/registry.hpp"
#include "hms/segment.hpp"
#include "memsim/fluid.hpp"
#include "perf.hpp"
#include "serve/driver.hpp"
#include "spans.hpp"
#include "task/executor_base.hpp"
#include "trace/histogram.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"
#include "workloads/common.hpp"

namespace tahoe::perf {
namespace {

using Metrics = std::vector<std::pair<std::string, Metric>>;

/// Median of `samples` (already in `unit`) as a host metric.
void add(Metrics& out, const std::string& name, const std::string& unit,
         std::vector<double> samples) {
  const double v = percentile(samples, 0.5);
  out.emplace_back(name, Metric{unit, Kind::kHost, v, std::move(samples)});
}

/// Wall seconds of each call of `fn`: at least `min_calls`, then more
/// until `budget` seconds have gone by.
template <typename Fn>
std::vector<double> time_calls(Fn&& fn, int min_calls, double budget) {
  std::vector<double> out;
  const double begin = now_seconds();
  while (static_cast<int>(out.size()) < min_calls ||
         now_seconds() - begin < budget) {
    const double t0 = now_seconds();
    fn();
    out.push_back(now_seconds() - t0);
    if (out.size() >= 10000) break;
  }
  return out;
}

std::vector<double> scaled(std::vector<double> xs, double factor) {
  for (double& x : xs) x *= factor;
  return xs;
}

/// Durations in ms of the spans recorded so far under `name`.
std::vector<double> span_ms(const std::string& name) {
  std::vector<double> out;
  for (const Span& s : recorder().spans()) {
    if (s.name == name) out.push_back((s.end - s.start) * 1e3);
  }
  return out;
}

std::uint64_t probe_seed(const RunOptions& o, std::uint64_t stream) {
  return derive_seed(0x7e57ab1e5eedULL + stream, o.seed, stream);
}

// ---- core: decide() through the forwarding decorator ----------------------

/// core.decide_ms.{2t,4t}.<app>: reuse the workload's own decide spans;
/// a paper2t pass (two-tier) or Tahoe runs on the cxl4t machine (four-tier)
/// record the missing ones. ft and lu are never in a cxl4t pass, so their
/// runs here also give core.runtime_cost_pct.4t.{ft,lu}, the paper's TAB-5
/// cost that their decide() time drives.
void decide_probes(const RunOptions& o, Metrics& out) {
  const std::vector<std::string>& apps = workloads::workload_names();
  const auto missing = [&apps](const std::string& prefix) {
    std::vector<std::string> m;
    for (const std::string& app : apps) {
      if (span_ms(prefix + app).empty()) m.push_back(app);
    }
    return m;
  };
  recorder().set_context("probe", -1);
  if (!missing("core.decide.2t.").empty()) {
    const std::unique_ptr<Workload> w = make_workload("paper2t", o);
    w->setup();
    w->pass(-1, [] {});
  }
  const memsim::Machine cxl = cxl_machine(o.seed);
  const core::ModelConstants constants = core::calibrate(cxl).to_constants();
  std::map<std::string, double> cost_pct;
  for (const std::string& app : missing("core.decide.4t.")) {
    cost_pct[app] =
        run_tahoe(cxl, constants, app, "core.decide.4t." + app)
            .runtime_cost_fraction() *
        100.0;
  }
  for (const char* tiers : {"2t", "4t"}) {
    for (const std::string& app : apps) {
      add(out, std::string("core.decide_ms.") + tiers + "." + app, "ms",
          span_ms(std::string("core.decide.") + tiers + "." + app));
    }
  }
  for (const char* app : {"ft", "lu"}) {
    add(out, std::string("core.runtime_cost_pct.4t.") + app, "%",
        {cost_pct.at(app)});
  }
}

// ---- core: knapsack solvers ---------------------------------------------

void knapsack_probes(const RunOptions& o, Metrics& out) {
  Rng rng(probe_seed(o, 1));
  const double budget = o.quick ? 0.02 : 0.3;
  const auto sizes = [&rng](std::size_t n) {
    std::vector<std::uint64_t> s(n);
    for (std::uint64_t& x : s) x = (1 + rng.next_below(64)) * kMiB;
    return s;
  };
  const auto total = [](const std::vector<std::uint64_t>& s) {
    std::uint64_t t = 0;
    for (const std::uint64_t x : s) t += x;
    return t;
  };
  for (const std::size_t n : {16u, 64u, 256u}) {
    const std::vector<std::uint64_t> s = sizes(n);
    std::vector<core::KnapsackItem> items;
    for (const std::uint64_t x : s) items.push_back({x, rng.next_double()});
    const std::uint64_t cap = total(s) * 3 / 10;
    add(out, "core.solve_us." + std::to_string(n), "us",
        scaled(time_calls([&] { (void)core::solve(items, cap); }, 3, budget),
               1e6));
  }
  for (const std::size_t n : {16u, 64u, 256u}) {
    const std::vector<std::uint64_t> s = sizes(n);
    std::vector<core::MultiTierItem> items;
    for (const std::uint64_t x : s) {
      const double v = rng.next_double();
      items.push_back({x, {v, 0.7 * v, 0.4 * v}});
    }
    const std::uint64_t t = total(s);
    const std::vector<std::uint64_t> caps = {t / 10, t / 5, t * 3 / 10};
    // A 256-item solve takes close to a second; two calls bound the cost.
    add(out, "core.solve_multi_us." + std::to_string(n), "us",
        scaled(time_calls([&] { (void)core::solve_multi(items, caps); }, 2,
                          budget),
               1e6));
  }
  const std::vector<core::TenantRow> rows = {
      {0, 6.0}, {0, 2.0}, {0, 1.0}};
  for (const std::size_t n : {16u, 64u}) {
    const std::vector<std::uint64_t> s = sizes(n);
    std::vector<core::TenantItem> items;
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back({s[i], rng.next_double(),
                       static_cast<std::uint32_t>(i % rows.size())});
    }
    const std::uint64_t cap = total(s) * 3 / 10;
    std::vector<core::TenantRow> quota = rows;
    quota[0].quota = cap / 2;
    quota[1].quota = cap / 3;
    quota[2].quota = cap / 6;
    add(out, "core.tenant_rows_us." + std::to_string(n), "us",
        scaled(time_calls(
                   [&] { (void)core::solve_tenant_rows(items, cap, quota); },
                   3, budget),
               1e6));
  }
}

// ---- core profiler, task graph build, memsim replay ----------------------

/// Replays each paper app's iterations under the schedule its Tahoe run
/// decided: task.graph_ms (build_iteration + GraphBuilder::build),
/// memsim.sim_iter_ms (SimExecutor::run) and core.profile_us
/// (Profiler::observe), each a median over iterations.
void replay_probes(const RunOptions& o, Metrics& out) {
  const memsim::Machine m = paper_machine(o.seed);
  const std::vector<std::string>& apps = workloads::workload_names();
  std::vector<std::pair<std::string, std::vector<double>>> graph, sim, prof;
  for (const std::string& name : apps) {
    auto planned = workloads::make_workload(name, workloads::Scale::Bench);
    const std::vector<task::ScheduledCopy> schedule =
        plan_schedule(m, *planned);

    auto app = workloads::make_workload(name, workloads::Scale::Bench);
    std::vector<std::uint64_t> caps;
    for (const memsim::DeviceModel& d : m.devices) caps.push_back(d.capacity);
    hms::ObjectRegistry registry(caps, hms::Backing::Virtual);
    hms::ChunkingPolicy chunking;
    chunking.dram_capacity = m.tier(m.fastest_tier()).capacity;
    app->setup(registry, chunking);
    hms::PlacementMap placement;
    for (const hms::ObjectId id : registry.live_objects()) {
      for (std::size_t c = 0; c < registry.get(id).num_chunks(); ++c) {
        placement.set(id, c, m.capacity_tier());
      }
    }
    task::SimExecutor executor;
    task::SimExecutor::Options opts;
    opts.unit_size = [&registry](hms::ObjectId id, std::size_t chunk) {
      return registry.get(id).chunk(chunk).bytes;
    };
    core::Profiler profiler(
        memsim::Sampler(m.sample_interval, m.cpu_hz, m.seed));
    std::vector<double> g_ms, s_ms, p_us;
    for (int round = 0; round < (o.quick ? 1 : 3); ++round) {
      for (std::size_t it = 0; it < app->iterations(); ++it) {
        const double t0 = now_seconds();
        task::GraphBuilder builder;
        app->build_iteration(builder, it);
        const task::TaskGraph g = builder.build();
        const double t1 = now_seconds();
        const task::SimReport r =
            executor.run(g, m, placement, schedule, opts);
        const double t2 = now_seconds();
        profiler.observe(g, r);
        const double t3 = now_seconds();
        g_ms.push_back((t1 - t0) * 1e3);
        s_ms.push_back((t2 - t1) * 1e3);
        p_us.push_back((t3 - t2) * 1e6);
      }
    }
    graph.emplace_back(name, std::move(g_ms));
    sim.emplace_back(name, std::move(s_ms));
    prof.emplace_back(name, std::move(p_us));
  }
  for (auto& [name, xs] : prof) add(out, "core.profile_us." + name, "us", xs);
  add(out, "core.calibrate_ms", "ms",
      scaled(time_calls([&m] { (void)core::calibrate(m); }, 5,
                        o.quick ? 0.01 : 0.1),
             1e3));
  for (auto& [name, xs] : graph) add(out, "task.graph_ms." + name, "ms", xs);
  for (auto& [name, xs] : sim) add(out, "memsim.sim_iter_ms." + name, "ms", xs);
}

/// Closed-loop FluidSim churn at a fixed active-flow population: 8 and 64
/// stay on the scan core, 1024 runs the indexed engine.
void fluid_probes(const RunOptions& o, Metrics& out) {
  const std::size_t flows = o.quick ? 5000 : 100000;
  for (const std::size_t active : {8u, 64u, 1024u}) {
    std::vector<double> mev;
    for (int rep = 0; rep < 3; ++rep) {
      memsim::FluidSim sim(2);
      Rng rng(probe_seed(o, 2) + active);
      std::size_t started = 0;
      std::uint64_t events = 0;
      const auto start_one = [&] {
        memsim::FlowSpec s;
        s.device_seconds.assign(2, 0.0);
        s.device_seconds[rng.next_below(2)] =
            1e-5 + rng.next_double() * 1e-3;
        if (rng.next_below(4) == 0) s.serial_seconds = rng.next_double() * 1e-4;
        s.tag = started++;
        sim.start_flow(std::move(s));
        ++events;
      };
      const double t0 = now_seconds();
      while (started < active) start_one();
      for (std::size_t done = 0; done < flows; ++done) {
        if (!sim.step().has_value()) break;
        ++events;
        if (started < flows) start_one();
      }
      mev.push_back(static_cast<double>(events) / (now_seconds() - t0) / 1e6);
    }
    add(out, "memsim.fluid_mev_per_s." + std::to_string(active), "Mev/s",
        mev);
  }
}

// ---- task: real executors on the real3w heat graph -------------------------

void executor_probes(const RunOptions& o, Metrics& out) {
  const memsim::Machine m = real_machine(64 * kMiB, o.seed);
  std::vector<std::uint64_t> caps;
  for (const memsim::DeviceModel& d : m.devices) caps.push_back(d.capacity);
  hms::ObjectRegistry registry(caps, hms::Backing::Real);
  workloads::HeatApp app(real_heat_config(o.quick));
  hms::ChunkingPolicy chunking;
  chunking.dram_capacity = m.tier(m.fastest_tier()).capacity;
  app.setup(registry, chunking);
  std::vector<task::TaskGraph> graphs;
  for (std::size_t it = 0; it < 3; ++it) {
    task::GraphBuilder builder;
    app.build_iteration(builder, it);
    graphs.push_back(builder.build());
  }
  for (const task::ExecutorBackend backend :
       {task::ExecutorBackend::kChaseLev, task::ExecutorBackend::kChannel}) {
    for (const unsigned workers : {1u, 3u}) {
      const std::unique_ptr<task::IExecutor> ex =
          task::make_executor(backend, workers);
      std::vector<double> rate;
      for (int rep = 0; rep < 2; ++rep) {
        for (const task::TaskGraph& g : graphs) {
          const double t0 = now_seconds();
          ex->run(g);
          rate.push_back(static_cast<double>(g.num_tasks()) /
                         (now_seconds() - t0) / 1e6);
        }
      }
      add(out,
          std::string("task.exec_mtasks_per_s.") + task::to_string(backend) +
              "." + std::to_string(workers) + "w",
          "Mtask/s", rate);
    }
  }
}

// ---- hms: registry, segment, arena, migration -----------------------------

void hms_probes(const RunOptions& o, Metrics& out) {
  Rng rng(probe_seed(o, 3));
  const int batches = o.quick ? 3 : 20;
  constexpr int kBatch = 256;
  {
    hms::ObjectRegistry registry({256 * kMiB, 16 * kGiB},
                                 hms::Backing::Virtual);
    std::vector<std::string> names;
    for (int i = 0; i < kBatch; ++i) names.push_back("o" + std::to_string(i));
    std::vector<double> create_us, destroy_us;
    std::vector<hms::ObjectId> ids(kBatch);
    for (int b = 0; b < batches; ++b) {
      double t0 = now_seconds();
      for (int i = 0; i < kBatch; ++i) {
        ids[static_cast<std::size_t>(i)] =
            registry.create(names[static_cast<std::size_t>(i)], 4 * kMiB,
                            registry.capacity_tier(), 4);
      }
      create_us.push_back((now_seconds() - t0) * 1e6 / kBatch);
      t0 = now_seconds();
      for (const hms::ObjectId id : ids) registry.destroy(id);
      destroy_us.push_back((now_seconds() - t0) * 1e6 / kBatch);
    }
    add(out, "hms.create_us", "us", create_us);
    add(out, "hms.destroy_us", "us", destroy_us);
  }
  {
    hms::Segment segment(64 * kMiB);
    std::vector<double> alloc_ns, free_ns;
    std::vector<void*> blocks(kBatch);
    for (int b = 0; b < batches; ++b) {
      std::vector<std::uint64_t> sizes(kBatch);
      for (std::uint64_t& s : sizes) s = 16 + rng.next_below(4096);
      double t0 = now_seconds();
      for (int i = 0; i < kBatch; ++i) {
        blocks[static_cast<std::size_t>(i)] =
            segment.alloc(sizes[static_cast<std::size_t>(i)]);
      }
      alloc_ns.push_back((now_seconds() - t0) * 1e9 / kBatch);
      // Free in a shuffled order so the freelists see real interleaving.
      for (std::size_t i = blocks.size(); i > 1; --i) {
        std::swap(blocks[i - 1], blocks[rng.next_below(i)]);
      }
      t0 = now_seconds();
      for (void* p : blocks) segment.free(p);
      free_ns.push_back((now_seconds() - t0) * 1e9 / kBatch);
    }
    add(out, "hms.segment_alloc_ns", "ns", alloc_ns);
    add(out, "hms.segment_free_ns", "ns", free_ns);
  }
  {
    hms::Arena arena("probe", 16 * kGiB, hms::Backing::Virtual);
    std::vector<double> pair_ns;
    std::vector<void*> blocks(kBatch);
    for (int b = 0; b < batches; ++b) {
      const double t0 = now_seconds();
      for (void*& p : blocks) p = arena.alloc(64 + rng.next_below(1 << 20));
      for (void* p : blocks) arena.free(p);
      pair_ns.push_back((now_seconds() - t0) * 1e9 / kBatch);
    }
    add(out, "hms.arena_alloc_free_ns", "ns", pair_ns);
  }
  // migrate_chunk round trips (capacity tier -> tier 0 -> back) of a
  // 16 MiB Real object split into 64 KiB / 1 MiB / 16 MiB chunks.
  for (const auto& [label, chunks] :
       std::vector<std::pair<std::string, std::size_t>>{
           {"64k", 256}, {"1m", 16}, {"16m", 1}}) {
    hms::ObjectRegistry registry({1 * kGiB, 4 * kGiB}, hms::Backing::Real);
    const hms::ObjectId id = registry.create("m", 16 * kMiB, 1, chunks);
    std::vector<double> gbps;
    for (int rep = 0; rep < (o.quick ? 1 : 6); ++rep) {
      const double t0 = now_seconds();
      for (std::size_t c = 0; c < chunks; ++c) registry.migrate_chunk(id, c, 0);
      for (std::size_t c = 0; c < chunks; ++c) registry.migrate_chunk(id, c, 1);
      gbps.push_back(2.0 * 16 * kMiB / (now_seconds() - t0) / 1e9);
    }
    add(out, "hms.migrate_gbps." + label, "GB/s", gbps);
  }
  // Helper-thread engine: enqueue + drain of the real3w heat schedule on a
  // freshly initialized Real registry per repetition.
  {
    const memsim::Machine m = real_machine(64 * kMiB, o.seed);
    workloads::HeatApp planned(real_heat_config(o.quick));
    const std::vector<task::ScheduledCopy> schedule = plan_schedule(m, planned);
    std::vector<std::uint64_t> caps;
    for (const memsim::DeviceModel& d : m.devices) caps.push_back(d.capacity);
    std::vector<double> gbps;
    for (int rep = 0; rep < (o.quick ? 1 : 3); ++rep) {
      hms::ObjectRegistry registry(caps, hms::Backing::Real);
      workloads::HeatApp app(real_heat_config(o.quick));
      hms::ChunkingPolicy chunking;
      chunking.dram_capacity = m.tier(m.fastest_tier()).capacity;
      app.setup(registry, chunking);
      hms::MigrationEngine engine(registry,
                                  hms::MigrationEngine::Mode::HelperThread);
      const double t0 = now_seconds();
      for (const task::ScheduledCopy& c : schedule) {
        engine.enqueue({c.object, c.chunk, c.dst, c.needed_group});
      }
      engine.drain();
      const double dt = now_seconds() - t0;
      const auto moved = static_cast<double>(registry.stats().bytes_moved);
      if (moved > 0.0) gbps.push_back(moved / dt / 1e9);
    }
    // A plan with no copies (e.g. everything fits) moves nothing; report
    // the engine's round-trip rate on an empty queue as zero throughput.
    if (gbps.empty()) gbps.push_back(0.0);
    add(out, "hms.engine_gbps", "GB/s", gbps);
  }
}

// ---- serve: run_serve and plan_tenants at 200 prod req/s -------------------

void serve_probes(const RunOptions& o, Metrics& out) {
  const memsim::Machine m = serve_machine();
  const int reps = o.quick ? 1 : 5;
  std::vector<double> run_ms;
  for (int rep = 0; rep < reps; ++rep) {
    serve::TenantManager tm(m);
    add_serve_tenants(tm, 0.5, o.seed);
    serve::ServeOptions opts;
    opts.duration_seconds = kServeSeconds;
    const double t0 = now_seconds();
    (void)serve::run_serve(tm, opts);
    run_ms.push_back((now_seconds() - t0) * 1e3);
  }
  add(out, "serve.run_ms", "ms", run_ms);
  serve::TenantManager tm(m);
  add_serve_tenants(tm, 0.5, o.seed);
  add(out, "serve.plan_ms", "ms",
      scaled(time_calls([&tm] { (void)tm.plan(true); }, 5,
                        o.quick ? 0.01 : 0.2),
             1e3));
}

// ---- trace: tracer + histograms, telemetry sampler, vs off -----------------

void trace_probes(const RunOptions& o, Metrics& out) {
  const std::unique_ptr<Workload> w = make_workload("paper2t", o);
  w->setup();
  w->pass(-1, [] {});
  std::vector<double> off, tracer, telemetry;
  trace::TelemetryConfig sampler;
  // Armed through the stall detector alone: no output file, no wall-clock
  // thread, and a limit that never fires.
  sampler.stall_intervals = 1 << 30;
  for (int round = 0; round < (o.quick ? 1 : 4); ++round) {
    double t0 = now_seconds();
    w->pass(-1, [] {});
    off.push_back(now_seconds() - t0);

    trace::global().set_enabled(true);
    trace::set_histograms_enabled(true);
    t0 = now_seconds();
    w->pass(-1, [] {});
    tracer.push_back(now_seconds() - t0);
    trace::global().set_enabled(false);
    trace::set_histograms_enabled(false);
    (void)trace::global().drain();

    trace::telemetry().configure(sampler);
    t0 = now_seconds();
    w->pass(-1, [] {});
    telemetry.push_back(now_seconds() - t0);
    trace::telemetry().shutdown();
  }
  const double base = percentile(off, 0.5);
  const auto overhead = [base](const std::vector<double>& xs) {
    std::vector<double> pct;
    for (const double x : xs) pct.push_back((x / base - 1.0) * 100.0);
    return pct;
  };
  add(out, "trace.tracer_overhead_pct", "%", overhead(tracer));
  add(out, "trace.telemetry_overhead_pct", "%", overhead(telemetry));
}

}  // namespace

Metrics layer_metrics(const RunOptions& options) {
  Metrics out;
  decide_probes(options, out);
  // The remaining probes are timed directly; spans around them would only
  // add recorder cost to what they measure.
  const bool was_enabled = recorder().enabled();
  recorder().set_enabled(false);
  knapsack_probes(options, out);
  replay_probes(options, out);
  fluid_probes(options, out);
  executor_probes(options, out);
  hms_probes(options, out);
  serve_probes(options, out);
  trace_probes(options, out);
  recorder().set_enabled(was_enabled);
  return out;
}

}  // namespace tahoe::perf
