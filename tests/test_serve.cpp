// Multi-tenant serving subsystem: the tenant-row knapsack against the
// exhaustive oracle, per-tenant histogram merging, KV request assembly,
// byte-stable deterministic reports pinned against goldens, and the QoS
// tail-latency ordering the serving bench asserts in CI.
#include "serve/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/knapsack.hpp"
#include "golden.hpp"
#include "reference_knapsack.hpp"
#include "memsim/machine.hpp"
#include "serve/request.hpp"
#include "serve/zipf.hpp"
#include "task/graph.hpp"
#include "trace/histogram.hpp"
#include "trace/trace.hpp"

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
        core::reference::solve_tenant_rows_exact(items, capacity, rows);
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

/// One request's access list built with per-op arithmetic: each op draws
/// a key and a write coin from `rng`, hashes the key to its value's byte
/// offset, walks the value chunk by chunk with `/` and `%`, and adds each
/// piece to a tally kept sorted by shard-major chunk. The service reads a
/// per-key table instead; its lists must be these, field for field.
std::vector<task::DataAccess> kv_accesses_by_arithmetic(
    const KvConfig& cfg, const Zipf& zipf,
    const std::vector<hms::ObjectId>& shards, Rng& rng) {
  const std::uint64_t space =
      cfg.chunk_bytes * cfg.chunks_per_shard * cfg.shards;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> tally;
  for (std::size_t op = 0; op < cfg.ops_per_request; ++op) {
    const std::size_t key = zipf.sample(rng);
    const bool write = rng.next_double() < cfg.write_frac;
    SplitMix64 h(0x5e12f00d ^ static_cast<std::uint64_t>(key));
    std::uint64_t pos = h.next() % (space - cfg.value_bytes);
    for (std::uint64_t left = cfg.value_bytes; left > 0;) {
      const std::uint64_t in_chunk =
          std::min(left, cfg.chunk_bytes - pos % cfg.chunk_bytes);
      auto& [read, written] = tally[pos / cfg.chunk_bytes];
      (write ? written : read) += in_chunk;
      pos += in_chunk;
      left -= in_chunk;
    }
  }
  std::vector<task::DataAccess> out;
  for (const auto& [gc, bytes] : tally) {
    const auto [read, written] = bytes;
    task::DataAccess a;
    a.object = shards[gc / cfg.chunks_per_shard];
    a.chunk = gc % cfg.chunks_per_shard;
    a.mode = written == 0 ? task::AccessMode::Read
             : read == 0  ? task::AccessMode::Write
                          : task::AccessMode::ReadWrite;
    a.traffic.loads = read / 8;
    a.traffic.stores = written / 8;
    a.traffic.footprint = read + written;
    a.traffic.locality = 0.1;
    a.traffic.dep_frac = 0.7;
    a.traffic.spatial = 0.2;
    out.push_back(a);
  }
  return out;
}

TEST(KvService, DeclarationMatchesPerOpArithmetic) {
  // Values inside one chunk or straddling two; values longer than a chunk;
  // values that fill the store up to its last chunk (offsets 0 .. 16 KiB
  // only); the longest value the 512-KiB store takes, which starts at
  // byte 0 and ends on the last byte any value reaches (the modulo keeps
  // a value's end one byte short of the store's); keys that land anywhere
  // up to the last chunk; empty values.
  std::vector<KvConfig> configs;
  configs.push_back(small_kv(0.3));
  KvConfig spanning = small_kv(0.5);
  spanning.value_bytes = 150 * kKiB;
  configs.push_back(spanning);
  KvConfig filling = small_kv(0.2);
  filling.value_bytes = 8 * 64 * kKiB - 16 * kKiB - 1;
  filling.ops_per_request = 3;
  configs.push_back(filling);
  KvConfig longest = small_kv(0.4);
  longest.value_bytes = 8 * 64 * kKiB - 1;
  longest.ops_per_request = 3;
  configs.push_back(longest);
  KvConfig many_keys = small_kv(0.1);
  many_keys.keys = 20000;
  many_keys.zipf_s = 0.2;
  configs.push_back(many_keys);
  KvConfig empty = small_kv(0.5);
  empty.value_bytes = 0;
  configs.push_back(empty);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    SCOPED_TRACE("config " + std::to_string(c));
    const KvConfig& cfg = configs[c];
    const KvFixture kv(cfg);
    const Zipf zipf(cfg.keys, cfg.zipf_s);
    Rng rng(41 + c);
    Rng replay = rng;
    const std::vector<task::Task> tasks = kv.requests(500, rng);
    for (const task::Task& t : tasks) {
      const std::vector<task::DataAccess> want =
          kv_accesses_by_arithmetic(cfg, zipf, kv.service->objects(), replay);
      ASSERT_EQ(t.accesses.size(), want.size()) << "request " << t.request;
      for (std::size_t i = 0; i < want.size(); ++i) {
        const task::DataAccess& got = t.accesses[i];
        EXPECT_EQ(got.object, want[i].object);
        EXPECT_EQ(got.chunk, want[i].chunk);
        EXPECT_EQ(got.mode, want[i].mode);
        EXPECT_EQ(got.traffic.loads, want[i].traffic.loads);
        EXPECT_EQ(got.traffic.stores, want[i].traffic.stores);
        EXPECT_EQ(got.traffic.footprint, want[i].traffic.footprint);
        EXPECT_EQ(got.traffic.locality, want[i].traffic.locality);
        EXPECT_EQ(got.traffic.dep_frac, want[i].traffic.dep_frac);
        EXPECT_EQ(got.traffic.spatial, want[i].traffic.spatial);
      }
    }
    // The service's state is its own: both streams drew the same values.
    EXPECT_EQ(rng.next_u64(), replay.next_u64());
  }
}

TEST(KvService, HeatMatchesPerKeyArithmetic) {
  // heat() sums each key's Zipf mass into the chunks its value overlaps,
  // key by key and chunk by chunk, bit for bit.
  for (const std::uint64_t value_bytes : {16 * kKiB, 150 * kKiB}) {
    KvConfig cfg = small_kv(0.3);
    cfg.value_bytes = value_bytes;
    const KvFixture kv(cfg);
    const Zipf zipf(cfg.keys, cfg.zipf_s);
    const std::uint64_t space =
        cfg.chunk_bytes * cfg.chunks_per_shard * cfg.shards;
    std::vector<double> want(cfg.chunks_per_shard * cfg.shards, 0.0);
    for (std::size_t k = 0; k < cfg.keys; ++k) {
      const double mass =
          zipf.pmf(k) * static_cast<double>(cfg.ops_per_request);
      SplitMix64 h(0x5e12f00d ^ static_cast<std::uint64_t>(k));
      std::uint64_t pos = h.next() % (space - cfg.value_bytes);
      for (std::uint64_t left = cfg.value_bytes; left > 0;) {
        const std::uint64_t in_chunk =
            std::min(left, cfg.chunk_bytes - pos % cfg.chunk_bytes);
        want[pos / cfg.chunk_bytes] += mass * static_cast<double>(in_chunk);
        pos += in_chunk;
        left -= in_chunk;
      }
    }
    const std::vector<UnitHeat> heat = kv.service->heat();
    ASSERT_EQ(heat.size(), want.size());
    for (std::size_t gc = 0; gc < want.size(); ++gc) {
      EXPECT_EQ(heat[gc].unit.object,
                kv.service->objects()[gc / cfg.chunks_per_shard]);
      EXPECT_EQ(heat[gc].unit.chunk, gc % cfg.chunks_per_shard);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(heat[gc].bytes_per_request),
                std::bit_cast<std::uint64_t>(want[gc]))
          << "chunk " << gc;
    }
  }
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

TEST(ServeDriver, TracesEveryEpochOnTheGlobalTracer) {
  // With the global tracer on, every epoch's tenant groups and tasks land
  // in it: one "group <tenant>" span per dispatched batch, whose task
  // counts add up to the run's, and one span per task on a worker lane.
  const memsim::Machine machine = memsim::machines::optane_platform(64 * kMiB);
  TenantManager tm(machine);
  TenantConfig prod;
  prod.name = "prod";
  prod.priority = 4.0;
  prod.arrival_hz = 400.0;
  prod.seed = 7;
  prod.service = make_kv_service(KvConfig{});
  tm.add(std::move(prod));
  TenantConfig bg;
  bg.name = "bg";
  bg.arrival_hz = 100.0;
  bg.seed = 8;
  GraphConfig graph;
  graph.prefix = "bg";
  bg.service = make_graph_service(graph);
  tm.add(std::move(bg));
  ServeOptions opts;
  opts.duration_seconds = 0.05;
  opts.deterministic = true;

  trace::Tracer& tracer = trace::global();
  (void)tracer.drain();
  const std::uint64_t dropped_before = tracer.dropped();
  tracer.set_enabled(true);
  const ServeResult r = run_serve(tm, opts);
  tracer.set_enabled(false);
  const std::vector<trace::TraceEvent> events = tracer.drain();

  ASSERT_GT(r.report.tasks_executed, 0u);
  std::map<std::string, std::uint64_t> group_tasks;
  std::uint64_t task_spans = 0;
  for (const trace::TraceEvent& ev : events) {
    if (ev.kind != trace::EventKind::Complete) continue;
    const std::string name(ev.name);
    if (ev.track == trace::kRuntimeTrack && name.rfind("group ", 0) == 0) {
      ASSERT_EQ(ev.num_args, 1u);
      EXPECT_STREQ(ev.arg_key[0], "tasks");
      group_tasks[name.substr(6)] += ev.arg_val[0];
    } else if (ev.track < machine.workers) {
      ++task_spans;
    }
  }
  ASSERT_EQ(group_tasks.size(), 2u);
  EXPECT_GT(group_tasks["prod"], 0u);
  EXPECT_GT(group_tasks["bg"], 0u);
  EXPECT_EQ(group_tasks["prod"] + group_tasks["bg"], r.report.tasks_executed);
  EXPECT_EQ(task_spans, r.report.tasks_executed);
  EXPECT_EQ(tracer.dropped(), dropped_before);
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
  std::vector<Request> arrivals;
  ok.drain_until(1.0, arrivals);
  EXPECT_FALSE(arrivals.empty());
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
