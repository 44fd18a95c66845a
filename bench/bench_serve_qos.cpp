// QOS: multi-tenant serving — per-tenant tail latency with priority/quota
// planning (multi-tenant knapsack rows) versus the quota-free shared
// knapsack, on one shared Optane-class machine.
//
//   bench/bench_serve_qos [--duration S] [--epoch S] [--rate-scale X]
//       [--dram-mib N] [--deterministic] [--check] [--csv]
//       [--report-json FILE] [--trace-out FILE] [--fault-*...]
//
// Three tenants share the box:
//   prod  (priority 6): Zipfian KV/cache — latency-critical, dependence-
//                       heavy probing that suffers most on NVM;
//   batch (priority 2): tensor-pipeline inference — streaming weights with
//                       the highest raw bytes/s, which is exactly what the
//                       tenant-blind knapsack maximizes;
//   bg    (priority 1): graph analytics with irregular reuse.
//
// Quota-free planning promotes the throughput-heavy batch/bg data and
// starves prod; QoS rows reserve prod's priority share, so its p99 request
// latency improves strictly. --check asserts that ordering (CI smoke), and
// --deterministic zeroes the wall-clock planning fields so same-seed runs
// emit byte-identical reports, with their per-tenant "tenants" sections.
// A --rate-scale and --duration that let one tenant expect more than
// kMaxExpectedArrivals requests are a bad command line: the open-loop
// sources draw every arrival before the horizon, served or not. So is a
// --duration of more than kMaxEpochs epochs: the serving loop advances its
// clock by at least one epoch per pass, and not at all once an epoch falls
// below the clock's ULP.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/driver.hpp"
#include "trace/counters.hpp"

namespace {

using namespace tahoe;

/// Each tenant's arrival rate at --rate-scale=1, in requests per second.
constexpr double kProdHz = 400.0;
constexpr double kBatchHz = 40.0;
constexpr double kBgHz = 30.0;
/// The most requests one tenant may expect over the horizon.
constexpr double kMaxExpectedArrivals = 1e6;
/// The most epochs the horizon may span.
constexpr double kMaxEpochs = 1e7;

void add_tenants(serve::TenantManager& tm, double rate_scale) {
  serve::TenantConfig prod;
  prod.name = "prod";
  prod.priority = 6.0;
  prod.arrival_hz = kProdHz * rate_scale;
  prod.seed = 101;
  serve::KvConfig kv;
  kv.prefix = "prod";
  kv.shards = 2;
  kv.chunks_per_shard = 8;
  kv.chunk_bytes = 2ull << 20;
  kv.keys = 4096;
  kv.zipf_s = 1.1;
  kv.ops_per_request = 8;
  kv.value_bytes = 16ull << 10;
  prod.service = serve::make_kv_service(kv);
  tm.add(std::move(prod));

  serve::TenantConfig batch;
  batch.name = "batch";
  batch.priority = 2.0;
  batch.arrival_hz = kBatchHz * rate_scale;
  batch.seed = 202;
  serve::TensorConfig tensor;
  tensor.prefix = "batch";
  tensor.layers = 6;
  tensor.layer_bytes = 8ull << 20;
  tensor.activation_bytes = 1ull << 20;
  batch.service = serve::make_tensor_service(tensor);
  tm.add(std::move(batch));

  serve::TenantConfig bg;
  bg.name = "bg";
  bg.priority = 1.0;
  bg.arrival_hz = kBgHz * rate_scale;
  bg.seed = 303;
  serve::GraphConfig graph;
  graph.prefix = "bg";
  bg.service = serve::make_graph_service(graph);
  tm.add(std::move(bg));
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

int main(int argc, char** argv) try {
  Flags flags;
  flags.define_double("duration", 1.0, "virtual seconds of offered traffic");
  flags.define_double("epoch", 0.005,
                      "batching epoch in virtual seconds; --duration may "
                      "span at most 1e7 epochs");
  flags.define_double("rate-scale", 1.0,
                      "multiply every arrival rate (prod 400/s, batch 40/s, "
                      "bg 30/s); a tenant may expect at most 1e6 requests "
                      "over --duration");
  flags.define_int("dram-mib", 64, "DRAM tier capacity in MiB");
  flags.define_int("workers", 0, "worker override (0 = machine default)");
  flags.define_bool("deterministic", false,
                    "zero wall-clock report fields for byte-stable output");
  flags.define_bool("check", false,
                    "exit non-zero unless QoS strictly improves the "
                    "high-priority tenant's p99 over quota-free");
  flags.define_bool("csv", false, "also emit CSV");
  bench::register_artifact_flags(flags);
  flags.parse(argc, argv);
  const bench::ArtifactFlags artifacts = bench::apply_artifact_flags(flags);

  memsim::Machine machine = memsim::machines::optane_platform(
      bench::dram_capacity_from_flags(flags));
  const auto workers = static_cast<std::uint32_t>(flags.get_uint(
      "workers", std::numeric_limits<std::uint32_t>::max()));
  if (workers != 0) machine.workers = workers;

  // The serving loop ends only when a finite clock passes a finite
  // horizon, and every arrival rate must be finite and positive.
  for (const char* name : {"duration", "epoch", "rate-scale"}) {
    const double value = flags.get_double(name);
    flags.require_flag(std::isfinite(value) && value > 0.0,
                       std::string("--") + name +
                           " must be a positive finite number");
  }
  flags.require_flag(
      flags.get_double("duration") / flags.get_double("epoch") <= kMaxEpochs,
      "--duration spans more than 1e7 epochs of --epoch");
  // A huge finite scale overflows a tenant's rate to inf, or leaves it
  // finite but with more arrivals to draw than memory or time allow.
  const double rate_scale = flags.get_double("rate-scale");
  for (const double hz : {kProdHz, kBatchHz, kBgHz}) {
    const double expected = hz * rate_scale * flags.get_double("duration");
    flags.require_flag(
        std::isfinite(expected) && expected <= kMaxExpectedArrivals,
        "--rate-scale times --duration gives a tenant more than 1e6 "
        "expected requests");
  }
  serve::ServeOptions opts;
  opts.duration_seconds = flags.get_double("duration");
  opts.epoch_seconds = flags.get_double("epoch");
  opts.deterministic = flags.get_bool("deterministic");
  opts.workers = workers;

  // Same seeds + virtual time: both modes see the identical request
  // streams, so the only difference is the placement plan.
  std::vector<serve::ServeResult> results;
  for (const bool qos : {true, false}) {
    trace::global_counters().reset();
    serve::TenantManager tm(machine);
    add_tenants(tm, rate_scale);
    opts.enforce_quotas = qos;
    serve::ServeResult r = serve::run_serve(tm, opts);
    bench::append_report_json(r.report, artifacts.report_json);
    results.push_back(std::move(r));
  }
  const core::RunReport& qos_report = results[0].report;
  const core::RunReport& free_report = results[1].report;

  Table table({"tenant", "prio", "quota MiB", "dram MiB", "reqs", "queued",
               "qos p50 ms", "qos p99 ms", "free p50 ms", "free p99 ms"});
  for (std::size_t i = 0; i < qos_report.tenants.size(); ++i) {
    const core::TenantReportRow& q = qos_report.tenants[i];
    const core::TenantReportRow& f = free_report.tenants[i];
    table.add_row({q.name, Table::num(q.priority),
                   Table::num(static_cast<double>(q.quota_bytes) / kMiB),
                   Table::num(static_cast<double>(q.fast_bytes) / kMiB),
                   std::to_string(q.requests), std::to_string(q.dropped),
                   Table::num(ms(q.request_latency.p50())),
                   Table::num(ms(q.request_latency.p99())),
                   Table::num(ms(f.request_latency.p50())),
                   Table::num(ms(f.request_latency.p99()))});
  }
  bench::emit("multi-tenant serving QoS (priority rows vs quota-free)", table,
              flags.get_bool("csv"));

  if (flags.get_bool("check")) {
    const core::TenantReportRow& q = qos_report.tenants.front();
    const core::TenantReportRow& f = free_report.tenants.front();
    if (q.requests == 0 || f.requests == 0) {
      std::cerr << "check FAILED: high-priority tenant completed no requests\n";
      return 1;
    }
    if (q.request_latency.p99() >= f.request_latency.p99()) {
      std::cerr << "check FAILED: qos p99 " << q.request_latency.p99()
                << "ns is not strictly below quota-free p99 "
                << f.request_latency.p99() << "ns\n";
      return 1;
    }
    std::cout << "check OK: prod p99 " << ms(q.request_latency.p99())
              << " ms (qos) < " << ms(f.request_latency.p99())
              << " ms (quota-free)\n";
  }
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
