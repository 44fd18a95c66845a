// Multi-tenant serving subsystem: the tenant-row knapsack against the
// exhaustive oracle, per-tenant histogram merging, KV request assembly,
// byte-stable deterministic reports pinned against goldens, and the QoS
// tail-latency ordering the serving bench asserts in CI.
#include "serve/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/knapsack.hpp"
#include "golden.hpp"
#include "memsim/machine.hpp"
#include "serve/request.hpp"
#include "serve/zipf.hpp"
#include "task/graph.hpp"
#include "trace/histogram.hpp"

namespace tahoe::serve {
namespace {

// ---- multi-tenant knapsack ------------------------------------------

TEST(TenantKnapsack, MatchesExactOracleOnSmallInstances) {
  // Capacity below the grid size means granule = 1 byte: the DP is exact,
  // so its objective must equal the exhaustive oracle's.
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 3 + rng.next_below(8);  // <= 10 items
    const std::uint32_t tenants = 1 + static_cast<std::uint32_t>(
        rng.next_below(3));
    std::vector<core::TenantItem> items;
    for (std::size_t i = 0; i < n; ++i) {
      core::TenantItem it;
      it.size = 1 + rng.next_below(100);
      it.value = rng.next_double() * 10.0 - 1.0;  // some non-positive
      it.tenant = static_cast<std::uint32_t>(rng.next_below(tenants));
      items.push_back(it);
    }
    std::vector<core::TenantRow> rows;
    for (std::uint32_t t = 0; t < tenants; ++t) {
      core::TenantRow row;
      row.quota = 40 + rng.next_below(200);
      row.priority = 1.0 + rng.next_double() * 7.0;
      rows.push_back(row);
    }
    const std::uint64_t capacity = 100 + rng.next_below(300);
    const core::TenantKnapsackResult dp =
        core::solve_tenant_rows(items, capacity, rows);
    const core::TenantKnapsackResult oracle =
        core::solve_tenant_rows_exact(items, capacity, rows);
    EXPECT_NEAR(dp.total_value, oracle.total_value, 1e-9)
        << "trial " << trial << ": DP missed the optimum";
  }
}

TEST(TenantKnapsack, NeverViolatesQuotaOrCapacityUnderCoarseGrid) {
  // Sizes round up and quotas round down, so even a very coarse grid must
  // keep every row and the shared capacity feasible.
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<core::TenantItem> items;
    for (int i = 0; i < 24; ++i) {
      core::TenantItem it;
      it.size = 1 + rng.next_below(1 << 20);
      it.value = rng.next_double() * 5.0;
      it.tenant = static_cast<std::uint32_t>(rng.next_below(3));
      items.push_back(it);
    }
    std::vector<core::TenantRow> rows(3);
    for (auto& row : rows) {
      row.quota = rng.next_below(4u << 20);
      row.priority = 1.0 + rng.next_double() * 4.0;
    }
    const std::uint64_t capacity = 1 + rng.next_below(8u << 20);
    const core::TenantKnapsackResult r =
        core::solve_tenant_rows(items, capacity, rows, /*grid=*/16);
    EXPECT_LE(r.total_size, capacity);
    ASSERT_EQ(r.tenant_sizes.size(), rows.size());
    std::vector<std::uint64_t> recomputed(rows.size(), 0);
    for (const std::size_t i : r.chosen) {
      recomputed[items[i].tenant] += items[i].size;
      EXPECT_GT(items[i].value, 0.0);
    }
    for (std::size_t t = 0; t < rows.size(); ++t) {
      EXPECT_EQ(r.tenant_sizes[t], recomputed[t]);
      EXPECT_LE(r.tenant_sizes[t], rows[t].quota) << "row " << t;
    }
  }
}

TEST(TenantKnapsack, DerivedQuotasArePrioritySharesAndFeasible) {
  const std::vector<double> priorities{6.0, 2.0, 1.0};
  const std::vector<std::uint64_t> quotas =
      core::derive_tenant_quotas(90, priorities);
  ASSERT_EQ(quotas.size(), 3u);
  EXPECT_EQ(quotas[0], 60u);
  EXPECT_EQ(quotas[1], 20u);
  EXPECT_EQ(quotas[2], 10u);
  std::uint64_t sum = 0;
  for (const std::uint64_t q : quotas) sum += q;
  EXPECT_LE(sum, 90u);
}

// ---- histogram merging across tenants -------------------------------

TEST(ServeHistograms, SnapshotMergeEqualsRecordingIntoOne) {
  // Per-tenant histograms merged after the fact must agree bucket-for-
  // bucket with one histogram that saw every sample — that is what makes
  // cross-tenant aggregate percentiles in reports trustworthy.
  trace::Histogram prod, batch, bg, all;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t v = rng.next_below(1u << 20);
    trace::Histogram* per_tenant = i % 3 == 0 ? &prod
                                 : i % 3 == 1 ? &batch
                                              : &bg;
    per_tenant->record(v);
    all.record(v);
  }
  trace::HistogramSnapshot merged = prod.snapshot();
  merged.merge(batch.snapshot());
  merged.merge(bg.snapshot());
  const trace::HistogramSnapshot direct = all.snapshot();
  EXPECT_EQ(merged.count(), 3000u);
  EXPECT_EQ(merged.sum, direct.sum);
  EXPECT_EQ(merged.max, direct.max);
  EXPECT_EQ(merged.buckets, direct.buckets);
  EXPECT_EQ(merged.p50(), direct.p50());
  EXPECT_EQ(merged.p99(), direct.p99());
}

// ---- KV request assembly ---------------------------------------------

/// A KV service provisioned on a registry of its own.
struct KvFixture {
  explicit KvFixture(const KvConfig& cfg)
      : registry({64 * kMiB, 4 * kGiB}, hms::Backing::Virtual),
        service(make_kv_service(cfg)),
        config(cfg) {
    service->provision(registry);
  }

  /// The tasks of `n` requests appended in order, tagged 0..n-1.
  std::vector<task::Task> requests(std::size_t n, Rng& rng) const {
    task::GraphBuilder builder;
    builder.begin_group(config.prefix);
    for (std::size_t r = 0; r < n; ++r) {
      service->append_request(builder, r, rng);
    }
    const task::TaskGraph graph = builder.build();
    return graph.tasks();
  }

  /// Shard-major chunk index of an access: ascending (shard, chunk) order.
  std::size_t global_chunk(const task::DataAccess& a) const {
    const std::vector<hms::ObjectId>& shards = service->objects();
    const auto it = std::find(shards.begin(), shards.end(), a.object);
    EXPECT_NE(it, shards.end()) << "access outside the KV shards";
    EXPECT_LT(a.chunk, config.chunks_per_shard);
    return static_cast<std::size_t>(it - shards.begin()) *
               config.chunks_per_shard +
           a.chunk;
  }

  hms::ObjectRegistry registry;
  std::unique_ptr<Service> service;
  KvConfig config;
};

KvConfig small_kv(double write_frac) {
  KvConfig kv;
  kv.prefix = "kv";
  kv.shards = 2;
  kv.chunks_per_shard = 4;
  kv.chunk_bytes = 64 * kKiB;
  kv.keys = 256;
  kv.ops_per_request = 8;
  kv.value_bytes = 16 * kKiB;
  kv.write_frac = write_frac;
  return kv;
}

TEST(KvService, AppendRequestEmitsOneAccessPerTouchedChunkInOrder) {
  const KvFixture kv(small_kv(0.3));
  Rng rng(11);
  const std::vector<task::Task> tasks = kv.requests(300, rng);
  ASSERT_EQ(tasks.size(), 300u);
  std::size_t modes[3] = {0, 0, 0};
  for (const task::Task& t : tasks) {
    EXPECT_EQ(t.label, "kv.get");
    EXPECT_EQ(t.request, static_cast<std::uint64_t>(t.id));
    ASSERT_FALSE(t.accesses.empty());
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < t.accesses.size(); ++i) {
      const task::DataAccess& a = t.accesses[i];
      if (i > 0) {
        EXPECT_LT(kv.global_chunk(t.accesses[i - 1]), kv.global_chunk(a))
            << "request " << t.request << ": chunks out of order or repeated";
      }
      EXPECT_GT(a.traffic.footprint, 0u);
      bytes += a.traffic.footprint;
      ++modes[static_cast<int>(a.mode)];
      switch (a.mode) {
        case task::AccessMode::Read:
          EXPECT_EQ(a.traffic.stores, 0u);
          EXPECT_EQ(a.traffic.loads, a.traffic.footprint / 8);
          break;
        case task::AccessMode::Write:
          EXPECT_EQ(a.traffic.loads, 0u);
          EXPECT_EQ(a.traffic.stores, a.traffic.footprint / 8);
          break;
        case task::AccessMode::ReadWrite:
          // Each tally loses under 8 bytes to the division by 8.
          EXPECT_LE(8 * (a.traffic.loads + a.traffic.stores),
                    a.traffic.footprint);
          EXPECT_GT(8 * (a.traffic.loads + a.traffic.stores) + 16,
                    a.traffic.footprint);
          break;
      }
    }
    EXPECT_EQ(bytes, kv.config.ops_per_request * kv.config.value_bytes)
        << "request " << t.request;
  }
  // Zipf-hot chunks mix reads and writes; cold ones see one kind of op.
  EXPECT_GT(modes[static_cast<int>(task::AccessMode::Read)], 0u);
  EXPECT_GT(modes[static_cast<int>(task::AccessMode::Write)], 0u);
  EXPECT_GT(modes[static_cast<int>(task::AccessMode::ReadWrite)], 0u);
}

TEST(KvService, AccessModeAndTalliesFollowTheOpMix) {
  // One key: every op of a request touches the same chunks, so each
  // chunk's read and write bytes are its share of the value times the
  // request's read and write op counts. The op loop draws a key, then the
  // write coin; replaying both on a copy of the stream recovers the mix.
  for (const double write_frac : {0.0, 0.1, 1.0}) {
    KvConfig cfg = small_kv(write_frac);
    cfg.keys = 1;
    const KvFixture kv(cfg);
    const Zipf zipf(cfg.keys, cfg.zipf_s);
    Rng rng(23);
    Rng replay = rng;
    const std::vector<task::Task> tasks = kv.requests(200, rng);
    std::size_t mixed = 0;
    for (const task::Task& t : tasks) {
      std::uint64_t writes = 0;
      for (std::size_t op = 0; op < cfg.ops_per_request; ++op) {
        (void)zipf.sample(replay);
        writes += replay.next_double() < write_frac ? 1 : 0;
      }
      const std::uint64_t reads = cfg.ops_per_request - writes;
      const task::AccessMode want = writes == 0  ? task::AccessMode::Read
                                    : reads == 0 ? task::AccessMode::Write
                                                 : task::AccessMode::ReadWrite;
      mixed += want == task::AccessMode::ReadWrite ? 1 : 0;
      std::uint64_t value_bytes = 0;
      for (const task::DataAccess& a : t.accesses) {
        EXPECT_EQ(a.mode, want) << "write_frac " << write_frac;
        ASSERT_EQ(a.traffic.footprint % cfg.ops_per_request, 0u);
        // Loads and stores are the chunk's read and write bytes over 8.
        const std::uint64_t piece =
            a.traffic.footprint / cfg.ops_per_request;
        EXPECT_EQ(a.traffic.loads, reads * piece / 8);
        EXPECT_EQ(a.traffic.stores, writes * piece / 8);
        value_bytes += piece;
      }
      EXPECT_EQ(value_bytes, cfg.value_bytes);
    }
    if (write_frac == 0.1) {
      EXPECT_GT(mixed, 0u);
      EXPECT_LT(mixed, tasks.size());
    }
  }
}

TEST(KvService, StraddlingValueTouchesBothChunks) {
  // One op per request: a value inside one chunk is one access; a value
  // across a boundary is two consecutive chunks (possibly the last chunk
  // of one shard and the first of the next) whose bytes sum to the value.
  KvConfig cfg = small_kv(0.5);
  cfg.ops_per_request = 1;
  const KvFixture kv(cfg);
  Rng rng(37);
  std::size_t straddled = 0;
  for (const task::Task& t : kv.requests(400, rng)) {
    ASSERT_GE(t.accesses.size(), 1u);
    ASSERT_LE(t.accesses.size(), 2u);
    if (t.accesses.size() == 1) {
      EXPECT_EQ(t.accesses[0].traffic.footprint, cfg.value_bytes);
      continue;
    }
    ++straddled;
    const task::DataAccess& lo = t.accesses[0];
    const task::DataAccess& hi = t.accesses[1];
    EXPECT_EQ(kv.global_chunk(lo) + 1, kv.global_chunk(hi));
    EXPECT_GT(lo.traffic.footprint, 0u);
    EXPECT_GT(hi.traffic.footprint, 0u);
    EXPECT_EQ(lo.traffic.footprint + hi.traffic.footprint, cfg.value_bytes);
    EXPECT_EQ(lo.mode, hi.mode);
    EXPECT_NE(lo.mode, task::AccessMode::ReadWrite);
  }
  EXPECT_GT(straddled, 0u);
}

// ---- end-to-end serving ---------------------------------------------

// The bench_serve_qos tenant mix, scaled down for test runtime: a
// latency-critical Zipfian KV tenant, a streaming tensor tenant (highest
// raw bytes/s — what a tenant-blind knapsack promotes), and background
// graph analytics.
void add_tenants(TenantManager& tm) {
  TenantConfig prod;
  prod.name = "prod";
  prod.priority = 6.0;
  prod.arrival_hz = 400.0;
  prod.seed = 101;
  KvConfig kv;
  kv.prefix = "prod";
  kv.shards = 2;
  kv.chunks_per_shard = 8;
  kv.chunk_bytes = 2 * kMiB;
  prod.service = make_kv_service(kv);
  tm.add(std::move(prod));

  TenantConfig batch;
  batch.name = "batch";
  batch.priority = 2.0;
  batch.arrival_hz = 40.0;
  batch.seed = 202;
  TensorConfig tensor;
  tensor.prefix = "batch";
  batch.service = make_tensor_service(tensor);
  tm.add(std::move(batch));

  TenantConfig bg;
  bg.name = "bg";
  bg.priority = 1.0;
  bg.arrival_hz = 30.0;
  bg.seed = 303;
  GraphConfig graph;
  graph.prefix = "bg";
  bg.service = make_graph_service(graph);
  tm.add(std::move(bg));
}

core::RunReport serve_once(bool enforce_quotas, double duration) {
  const memsim::Machine machine = memsim::machines::optane_platform(64 * kMiB);
  TenantManager tm(machine);
  add_tenants(tm);
  ServeOptions opts;
  opts.duration_seconds = duration;
  opts.epoch_seconds = 0.005;
  opts.enforce_quotas = enforce_quotas;
  opts.deterministic = true;
  const ServeResult r = run_serve(tm, opts);
  return r.report;
}

std::string to_json(const core::RunReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

TEST(ServeDriver, DeterministicRunsProduceByteIdenticalReports) {
  const core::RunReport a = serve_once(/*enforce_quotas=*/true, 0.1);
  const core::RunReport b = serve_once(/*enforce_quotas=*/true, 0.1);
  const std::string ja = to_json(a);
  const std::string jb = to_json(b);
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja.find("\"schema_version\":5"), std::string::npos);
  EXPECT_NE(ja.find("\"tenants\":[{"), std::string::npos);
  ASSERT_EQ(a.tenants.size(), 3u);
  EXPECT_GT(a.tenants[0].requests, 0u);
}

TEST(ServeDriver, QosStrictlyImprovesHighPriorityTailLatency) {
  const core::RunReport qos = serve_once(/*enforce_quotas=*/true, 0.2);
  const core::RunReport free_for_all = serve_once(/*enforce_quotas=*/false, 0.2);
  ASSERT_EQ(qos.tenants.size(), 3u);
  ASSERT_EQ(free_for_all.tenants.size(), 3u);
  const core::TenantReportRow& q = qos.tenants.front();
  const core::TenantReportRow& f = free_for_all.tenants.front();
  EXPECT_EQ(q.name, "prod");
  ASSERT_GT(q.requests, 0u);
  ASSERT_GT(f.requests, 0u);
  // Both modes see identical request streams (same seeds, virtual time),
  // so the placement plan is the only difference: the priority rows must
  // strictly beat the quota-free knapsack for the high-priority tenant.
  EXPECT_LT(q.request_latency.p99(), f.request_latency.p99());
  // Under QoS the prod tenant actually holds fast-tier residency.
  EXPECT_GT(q.fast_bytes, 0u);
}

// Non-finite inputs are rejected up front: an infinite rate puts every
// arrival at t = 0 and an infinite horizon never ends the epoch loop, so
// either would otherwise hang the run.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(OpenLoopSource, RejectsNonFiniteOrNonPositiveRates) {
  for (const double rate : {kInf, kNaN, 0.0, -1.0}) {
    EXPECT_THROW(OpenLoopSource(0, rate, 1), ContractError) << rate;
  }
  OpenLoopSource ok(0, 100.0, 1);
  EXPECT_FALSE(ok.drain_until(1.0).empty());
}

TEST(ServeDriver, RejectsNonFiniteOrNonPositiveDurationAndEpoch) {
  const memsim::Machine machine = memsim::machines::optane_platform(64 * kMiB);
  for (const bool duration : {true, false}) {
    for (const double bad : {kInf, kNaN, 0.0, -1.0}) {
      TenantManager tm(machine);
      add_tenants(tm);
      ServeOptions opts;
      opts.duration_seconds = 0.05;
      (duration ? opts.duration_seconds : opts.epoch_seconds) = bad;
      EXPECT_THROW(run_serve(tm, opts), ContractError)
          << (duration ? "duration " : "epoch ") << bad;
    }
  }
}

TEST(ServeDriver, RejectsAnInfiniteArrivalRate) {
  // bench_serve_qos --rate-scale=inf: every tenant's rate is infinite.
  const memsim::Machine machine = memsim::machines::optane_platform(64 * kMiB);
  TenantManager tm(machine);
  TenantConfig prod;
  prod.name = "prod";
  prod.arrival_hz = kInf;
  prod.service = make_kv_service(KvConfig{});
  tm.add(std::move(prod));
  ServeOptions opts;
  opts.duration_seconds = 0.05;
  EXPECT_THROW(run_serve(tm, opts), ContractError);
}

// The serving reports pinned byte for byte: the request streams, the
// tenant-row and quota-free plans, and the simulated latencies they give.
TEST(ServeGoldens, QosReportIsByteIdentical) {
  check_golden("serve_qos.report.json",
               to_json(serve_once(/*enforce_quotas=*/true, 0.2)));
}

TEST(ServeGoldens, QuotaFreeReportIsByteIdentical) {
  check_golden("serve_quota_free.report.json",
               to_json(serve_once(/*enforce_quotas=*/false, 0.2)));
}

}  // namespace
}  // namespace tahoe::serve
