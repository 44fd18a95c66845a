#include "serve/service.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "serve/zipf.hpp"

namespace tahoe::serve {
namespace {

memsim::ObjectTraffic traffic(std::uint64_t loads, std::uint64_t stores,
                              std::uint64_t footprint, double locality,
                              double dep_frac, double spatial) {
  memsim::ObjectTraffic t;
  t.loads = loads;
  t.stores = stores;
  t.footprint = footprint;
  t.locality = locality;
  t.dep_frac = dep_frac;
  t.spatial = spatial;
  return t;
}

// ---- KvService --------------------------------------------------------

/// Where one key's value lies in the store: the shard-major index of its
/// first chunk and the value's bytes in that chunk. The rest of the value
/// fills the chunks that follow, each up to its end.
struct KeySpan {
  std::uint64_t first_chunk = 0;
  std::uint64_t first_bytes = 0;
};

/// Every key's span in a store of `chunks` chunks of `chunk_bytes` bytes.
/// A key's value starts at a pure hash of the key, modulo the store's
/// bytes less the value's, so it may straddle chunks but never runs past
/// the end.
std::vector<KeySpan> build_key_table(std::size_t keys,
                                     std::uint64_t chunk_bytes,
                                     std::uint64_t chunks,
                                     std::uint64_t value_bytes) {
  const std::uint64_t space = chunk_bytes * chunks;
  std::vector<KeySpan> table(keys);
  for (std::size_t k = 0; k < keys; ++k) {
    SplitMix64 h(0x5e12f00d ^ static_cast<std::uint64_t>(k));
    const std::uint64_t off = h.next() % (space - value_bytes);
    table[k].first_chunk = off / chunk_bytes;
    table[k].first_bytes =
        std::min(value_bytes, chunk_bytes - off % chunk_bytes);
  }
  return table;
}

/// The process's key table for exactly this layout, built on first use.
/// It is immutable, so every KV service of one layout (one per run of a
/// rate ladder) shares it, as Zipf shares its CDF tables.
std::shared_ptr<const std::vector<KeySpan>> shared_key_table(
    std::size_t keys, std::uint64_t chunk_bytes, std::uint64_t chunks,
    std::uint64_t value_bytes) {
  static std::mutex mutex;
  static std::map<std::tuple<std::size_t, std::uint64_t, std::uint64_t,
                             std::uint64_t>,
                  std::shared_ptr<const std::vector<KeySpan>>>
      tables;
  const std::lock_guard<std::mutex> lock(mutex);
  std::shared_ptr<const std::vector<KeySpan>>& table =
      tables[{keys, chunk_bytes, chunks, value_bytes}];
  if (table == nullptr) {
    table = std::make_shared<const std::vector<KeySpan>>(
        build_key_table(keys, chunk_bytes, chunks, value_bytes));
  }
  return table;
}

class KvService final : public Service {
 public:
  explicit KvService(KvConfig cfg)
      : cfg_(std::move(cfg)),
        zipf_(cfg_.keys, cfg_.zipf_s),
        label_(cfg_.prefix + ".get") {
    TAHOE_REQUIRE(cfg_.shards > 0 && cfg_.chunks_per_shard > 0,
                  "kv: empty shard layout");
    TAHOE_REQUIRE(cfg_.value_bytes < cfg_.chunk_bytes * chunks(),
                  "kv: value larger than store");
    keys_ = shared_key_table(cfg_.keys, cfg_.chunk_bytes, chunks(),
                             cfg_.value_bytes);
  }

  std::string kind() const override { return "kv"; }

  void provision(hms::ObjectRegistry& reg) override {
    TAHOE_REQUIRE(objects_.empty(), "kv: provisioned twice");
    const std::uint64_t shard_bytes =
        cfg_.chunk_bytes * cfg_.chunks_per_shard;
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      objects_.push_back(reg.create(cfg_.prefix + ".shard" + std::to_string(s),
                                    shard_bytes, reg.capacity_tier(),
                                    cfg_.chunks_per_shard));
    }
  }

  std::vector<UnitHeat> heat() const override {
    TAHOE_REQUIRE(!objects_.empty(), "kv: heat() before provision()");
    // Exact expectation: sum each key's Zipf mass into the chunks its
    // value overlaps. Deterministic because the key -> offset map is a
    // pure hash of the rank.
    const std::size_t total_chunks = chunks();
    std::vector<double> per_chunk(total_chunks, 0.0);
    for (std::size_t k = 0; k < cfg_.keys; ++k) {
      const double mass =
          zipf_.pmf(k) * static_cast<double>(cfg_.ops_per_request);
      for_each_piece(k, [&](std::size_t gc, std::uint64_t bytes) {
        per_chunk[gc] += mass * static_cast<double>(bytes);
      });
    }
    std::vector<UnitHeat> out(total_chunks);
    for (std::size_t gc = 0; gc < total_chunks; ++gc) {
      out[gc].unit = {objects_[gc / cfg_.chunks_per_shard],
                      gc % cfg_.chunks_per_shard};
      out[gc].bytes = cfg_.chunk_bytes;
      out[gc].bytes_per_request = per_chunk[gc];
    }
    return out;
  }

  const std::vector<hms::ObjectId>& objects() const override {
    return objects_;
  }

  void append_request(task::GraphBuilder& builder, std::uint64_t request_tag,
                      Rng& rng) const override {
    // Tally the request's ops into per-chunk read and write bytes, then
    // emit one task declaring the touched chunks in ascending shard-major
    // order. The tally is this thread's: it is zero outside the chunks the
    // last request touched, which are zeroed first.
    thread_local ChunkTally tally;
    for (const std::size_t gc : tally.touched) tally.bytes[gc] = {};
    tally.touched.clear();
    if (tally.bytes.size() < chunks()) tally.bytes.resize(chunks());
    for (std::size_t op = 0; op < cfg_.ops_per_request; ++op) {
      const std::size_t key = zipf_.sample(rng);
      const bool write = rng.next_double() < cfg_.write_frac;
      for_each_piece(key, [&](std::size_t gc, std::uint64_t bytes) {
        ChunkBytes& c = tally.bytes[gc];
        if (c.read == 0 && c.write == 0) tally.touched.push_back(gc);
        (write ? c.write : c.read) += bytes;
      });
    }
    std::sort(tally.touched.begin(), tally.touched.end());
    task::Task t;
    t.label = label_;
    t.compute_seconds = cfg_.compute_seconds;
    t.request = request_tag;
    t.accesses.reserve(tally.touched.size());
    for (const std::size_t gc : tally.touched) {
      const auto [read_bytes, write_bytes] = tally.bytes[gc];
      task::DataAccess a;
      a.object = objects_[gc / cfg_.chunks_per_shard];
      a.chunk = gc % cfg_.chunks_per_shard;
      a.mode = write_bytes == 0  ? task::AccessMode::Read
               : read_bytes == 0 ? task::AccessMode::Write
                                 : task::AccessMode::ReadWrite;
      // Hash-probe style access: mostly serialized, little spatial reuse —
      // the latency-sensitive end of the serving spectrum.
      a.traffic = traffic(read_bytes / 8, write_bytes / 8,
                          read_bytes + write_bytes, 0.1, 0.7, 0.2);
      t.accesses.push_back(a);
    }
    builder.add_task(std::move(t));
  }

 private:
  /// One chunk's bytes in the request being tallied.
  struct ChunkBytes {
    std::uint64_t read = 0;
    std::uint64_t write = 0;
  };
  /// append_request's tally, by shard-major chunk, and the chunks the
  /// last request touched, in the order it first touched them.
  struct ChunkTally {
    std::vector<ChunkBytes> bytes;
    std::vector<std::size_t> touched;
  };

  std::size_t chunks() const noexcept {
    return cfg_.shards * cfg_.chunks_per_shard;
  }

  /// Call f(chunk, bytes) for each shard-major chunk `key`'s value
  /// overlaps, in ascending order, with the value's bytes in it.
  template <typename F>
  void for_each_piece(std::size_t key, F&& f) const {
    const KeySpan& span = (*keys_)[key];
    auto gc = static_cast<std::size_t>(span.first_chunk);
    std::uint64_t bytes = span.first_bytes;
    for (std::uint64_t left = cfg_.value_bytes; left > 0;) {
      f(gc++, bytes);
      left -= bytes;
      bytes = std::min(left, cfg_.chunk_bytes);
    }
  }

  KvConfig cfg_;
  Zipf zipf_;
  std::string label_;
  std::shared_ptr<const std::vector<KeySpan>> keys_;
  std::vector<hms::ObjectId> objects_;
};

// ---- GraphService -----------------------------------------------------

class GraphService final : public Service {
 public:
  explicit GraphService(GraphConfig cfg)
      : cfg_(std::move(cfg)), label_(cfg_.prefix + ".expand") {
    TAHOE_REQUIRE(cfg_.vertex_chunks > 0 && cfg_.adj_chunks > 0,
                  "graph: empty layout");
    TAHOE_REQUIRE(cfg_.frontier_chunks <= cfg_.adj_chunks,
                  "graph: frontier larger than adjacency");
  }

  std::string kind() const override { return "graph"; }

  void provision(hms::ObjectRegistry& reg) override {
    TAHOE_REQUIRE(objects_.empty(), "graph: provisioned twice");
    objects_.push_back(reg.create(cfg_.prefix + ".vertices", cfg_.vertex_bytes,
                                  reg.capacity_tier(), cfg_.vertex_chunks));
    objects_.push_back(reg.create(cfg_.prefix + ".adj", cfg_.adj_bytes,
                                  reg.capacity_tier(), cfg_.adj_chunks));
  }

  std::vector<UnitHeat> heat() const override {
    TAHOE_REQUIRE(!objects_.empty(), "graph: heat() before provision()");
    std::vector<UnitHeat> out;
    const std::uint64_t vchunk = cfg_.vertex_bytes / cfg_.vertex_chunks;
    for (std::size_t c = 0; c < cfg_.vertex_chunks; ++c) {
      out.push_back({{objects_[0], c},
                     vchunk,
                     cfg_.vertex_touch_frac * static_cast<double>(vchunk)});
    }
    const std::uint64_t achunk = cfg_.adj_bytes / cfg_.adj_chunks;
    const double hit = static_cast<double>(cfg_.frontier_chunks) /
                       static_cast<double>(cfg_.adj_chunks);
    for (std::size_t c = 0; c < cfg_.adj_chunks; ++c) {
      out.push_back({{objects_[1], c},
                     achunk,
                     hit * kAdjTouchFrac * static_cast<double>(achunk)});
    }
    return out;
  }

  const std::vector<hms::ObjectId>& objects() const override {
    return objects_;
  }

  void append_request(task::GraphBuilder& builder, std::uint64_t request_tag,
                      Rng& rng) const override {
    task::Task t;
    t.label = label_;
    t.compute_seconds = cfg_.compute_seconds;
    t.request = request_tag;
    t.accesses.reserve(cfg_.vertex_chunks + cfg_.frontier_chunks);
    // Hot vertex state: every chunk, partially touched, read-mostly with
    // scattered updates.
    const std::uint64_t vchunk = cfg_.vertex_bytes / cfg_.vertex_chunks;
    const auto vbytes = static_cast<std::uint64_t>(
        cfg_.vertex_touch_frac * static_cast<double>(vchunk));
    for (std::size_t c = 0; c < cfg_.vertex_chunks; ++c) {
      task::DataAccess a;
      a.object = objects_[0];
      a.chunk = c;
      a.mode = task::AccessMode::ReadWrite;
      a.traffic = traffic(vbytes / 8, vbytes / 32, vbytes, 0.3, 0.5, 0.1);
      t.accesses.push_back(a);
    }
    // Irregular adjacency reuse: a few random chunks, partially scanned.
    const std::uint64_t achunk = cfg_.adj_bytes / cfg_.adj_chunks;
    const auto abytes =
        static_cast<std::uint64_t>(kAdjTouchFrac * static_cast<double>(achunk));
    // This thread's frontier, kept across requests.
    thread_local std::vector<std::size_t> frontier;
    frontier.clear();
    while (frontier.size() < cfg_.frontier_chunks) {
      const auto c = static_cast<std::size_t>(rng.next_below(cfg_.adj_chunks));
      if (std::find(frontier.begin(), frontier.end(), c) == frontier.end()) {
        frontier.push_back(c);
      }
    }
    std::sort(frontier.begin(), frontier.end());
    for (const std::size_t c : frontier) {
      task::DataAccess a;
      a.object = objects_[1];
      a.chunk = c;
      a.mode = task::AccessMode::Read;
      a.traffic = traffic(abytes / 8, 0, abytes, 0.05, 0.3, 0.3);
      t.accesses.push_back(a);
    }
    builder.add_task(std::move(t));
  }

 private:
  static constexpr double kAdjTouchFrac = 0.25;

  GraphConfig cfg_;
  std::string label_;
  std::vector<hms::ObjectId> objects_;
};

// ---- TensorService ----------------------------------------------------

class TensorService final : public Service {
 public:
  explicit TensorService(TensorConfig cfg) : cfg_(std::move(cfg)) {
    TAHOE_REQUIRE(cfg_.layers > 0, "tensor: no layers");
    for (std::size_t l = 0; l < cfg_.layers; ++l) {
      layer_labels_.push_back(cfg_.prefix + ".layer" + std::to_string(l));
    }
  }

  std::string kind() const override { return "tensor"; }

  void provision(hms::ObjectRegistry& reg) override {
    TAHOE_REQUIRE(objects_.empty(), "tensor: provisioned twice");
    objects_.push_back(reg.create(cfg_.prefix + ".weights",
                                  cfg_.layer_bytes * cfg_.layers,
                                  reg.capacity_tier(), cfg_.layers));
    objects_.push_back(reg.create(cfg_.prefix + ".act",
                                  cfg_.activation_bytes * kActivationSlots,
                                  reg.capacity_tier(), kActivationSlots));
  }

  std::vector<UnitHeat> heat() const override {
    TAHOE_REQUIRE(!objects_.empty(), "tensor: heat() before provision()");
    std::vector<UnitHeat> out;
    for (std::size_t l = 0; l < cfg_.layers; ++l) {
      // Every layer's weights stream through in full, once per request.
      out.push_back({{objects_[0], l},
                     cfg_.layer_bytes,
                     static_cast<double>(cfg_.layer_bytes)});
    }
    for (std::size_t s = 0; s < kActivationSlots; ++s) {
      out.push_back({{objects_[1], s},
                     cfg_.activation_bytes,
                     2.0 * static_cast<double>(cfg_.activation_bytes) *
                         static_cast<double>(cfg_.layers) / kActivationSlots});
    }
    return out;
  }

  const std::vector<hms::ObjectId>& objects() const override {
    return objects_;
  }

  void append_request(task::GraphBuilder& builder, std::uint64_t request_tag,
                      Rng& /*rng*/) const override {
    // One task per layer, chained through the request's activation slot
    // (ReadWrite dependences give the pipeline order); distinct requests
    // use distinct slots, so a batch runs layers in parallel across
    // requests like a real inference server.
    const std::size_t slot =
        static_cast<std::size_t>(request_tag % kActivationSlots);
    for (std::size_t l = 0; l < cfg_.layers; ++l) {
      task::Task t;
      t.label = layer_labels_[l];
      t.compute_seconds = cfg_.compute_per_layer;
      t.request = request_tag;
      t.accesses.reserve(2);
      task::DataAccess w;
      w.object = objects_[0];
      w.chunk = l;
      w.mode = task::AccessMode::Read;
      // Streaming weight read: independent, sequential.
      w.traffic = traffic(cfg_.layer_bytes / 8, 0, cfg_.layer_bytes, 0.0, 0.0,
                          0.875);
      t.accesses.push_back(w);
      task::DataAccess act;
      act.object = objects_[1];
      act.chunk = slot;
      act.mode = task::AccessMode::ReadWrite;
      act.traffic = traffic(cfg_.activation_bytes / 8,
                            cfg_.activation_bytes / 8, cfg_.activation_bytes,
                            0.8, 0.1, 0.875);
      t.accesses.push_back(act);
      builder.add_task(std::move(t));
    }
  }

 private:
  static constexpr std::size_t kActivationSlots = 8;

  TensorConfig cfg_;
  std::vector<std::string> layer_labels_;
  std::vector<hms::ObjectId> objects_;
};

}  // namespace

std::unique_ptr<Service> make_kv_service(KvConfig config) {
  return std::make_unique<KvService>(std::move(config));
}
std::unique_ptr<Service> make_graph_service(GraphConfig config) {
  return std::make_unique<GraphService>(std::move(config));
}
std::unique_ptr<Service> make_tensor_service(TensorConfig config) {
  return std::make_unique<TensorService>(std::move(config));
}

}  // namespace tahoe::serve
