#include "serve/service.hpp"

#include <algorithm>
#include <string>
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

class KvService final : public Service {
 public:
  explicit KvService(KvConfig cfg)
      : cfg_(std::move(cfg)),
        zipf_(cfg_.keys, cfg_.zipf_s),
        label_(cfg_.prefix + ".get") {
    TAHOE_REQUIRE(cfg_.shards > 0 && cfg_.chunks_per_shard > 0,
                  "kv: empty shard layout");
    TAHOE_REQUIRE(cfg_.value_bytes < space(), "kv: value larger than store");
    // A value of V > 0 bytes overlaps at most (V + C - 2) / C + 1 chunks
    // of C bytes, so a request touches at most ops times that many.
    const std::uint64_t per_value =
        cfg_.value_bytes == 0
            ? 0
            : (cfg_.value_bytes + cfg_.chunk_bytes - 2) / cfg_.chunk_bytes + 1;
    max_touched_ = static_cast<std::size_t>(
        std::min<std::uint64_t>(cfg_.ops_per_request * per_value,
                                cfg_.shards * cfg_.chunks_per_shard));
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
    const std::size_t total_chunks = cfg_.shards * cfg_.chunks_per_shard;
    std::vector<double> per_chunk(total_chunks, 0.0);
    for (std::size_t k = 0; k < cfg_.keys; ++k) {
      const double mass =
          zipf_.pmf(k) * static_cast<double>(cfg_.ops_per_request);
      const std::uint64_t off = offset_of(k);
      std::uint64_t remaining = cfg_.value_bytes;
      std::uint64_t pos = off;
      while (remaining > 0) {
        const std::size_t gc = static_cast<std::size_t>(pos / cfg_.chunk_bytes);
        const std::uint64_t in_chunk = std::min(
            remaining, cfg_.chunk_bytes - (pos % cfg_.chunk_bytes));
        per_chunk[gc] += mass * static_cast<double>(in_chunk);
        pos += in_chunk;
        remaining -= in_chunk;
      }
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
    // Aggregate the request's ops into per-chunk byte tallies, kept sorted
    // by shard-major chunk index (a request touches a handful of chunks),
    // then emit one task declaring the combined access set.
    struct Touched {
      std::size_t chunk = 0;
      std::uint64_t read_bytes = 0;
      std::uint64_t write_bytes = 0;
    };
    std::vector<Touched> touched;
    touched.reserve(max_touched_);
    for (std::size_t op = 0; op < cfg_.ops_per_request; ++op) {
      const std::size_t key = zipf_.sample(rng);
      const bool write = rng.next_double() < cfg_.write_frac;
      const std::uint64_t off = offset_of(key);
      std::uint64_t remaining = cfg_.value_bytes;
      std::uint64_t pos = off;
      while (remaining > 0) {
        const std::size_t gc = static_cast<std::size_t>(pos / cfg_.chunk_bytes);
        const std::uint64_t in_chunk = std::min(
            remaining, cfg_.chunk_bytes - (pos % cfg_.chunk_bytes));
        auto it = std::lower_bound(
            touched.begin(), touched.end(), gc,
            [](const Touched& e, std::size_t c) { return e.chunk < c; });
        if (it == touched.end() || it->chunk != gc) {
          it = touched.insert(it, Touched{gc});
        }
        (write ? it->write_bytes : it->read_bytes) += in_chunk;
        pos += in_chunk;
        remaining -= in_chunk;
      }
    }
    task::Task t;
    t.label = label_;
    t.compute_seconds = cfg_.compute_seconds;
    t.request = request_tag;
    t.accesses.reserve(touched.size());
    for (const auto& [gc, read_bytes, write_bytes] : touched) {
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
  std::uint64_t space() const noexcept {
    return cfg_.chunk_bytes * cfg_.chunks_per_shard * cfg_.shards;
  }

  /// Deterministic key -> byte offset map (values may straddle chunks).
  std::uint64_t offset_of(std::size_t key) const {
    SplitMix64 h(0x5e12f00d ^ static_cast<std::uint64_t>(key));
    return h.next() % (space() - cfg_.value_bytes);
  }

  KvConfig cfg_;
  Zipf zipf_;
  std::string label_;
  /// The most chunks one request can touch.
  std::size_t max_touched_ = 0;
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
    std::vector<std::size_t> frontier;
    frontier.reserve(cfg_.frontier_chunks);
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
