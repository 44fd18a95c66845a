// Object registry: allocation, lookup, pointer redirection and migration.
//
// The registry is the application-facing allocation service (the
// `tahoe_malloc` analogue). It owns one Arena per memory tier, creates
// chunked or unchunked data objects, and implements migration as
// allocate-copy-free with atomic pointer redirection plus rewriting of any
// registered alias slots — the mechanism the paper line uses so that
// applications keep working unmodified after a move.
//
// Storage: every registry-managed structure (the slot table, the
// DataObjects, their chunk arrays and alias tables, the arenas' range
// lists) lives inside one hms::Segment and is linked only by self-relative
// offsets — see layout.hpp for the map. The registry hands out
// generation-tagged ObjectIds into a fixed-capacity slot table with an
// intrusive free list, so destroyed slots are recycled and stale ids are
// detected. Statistics, mutexes and the fallback configuration stay
// process-local: they are this runtime's view, not shared state.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "hms/arena.hpp"
#include "hms/data_object.hpp"
#include "hms/layout.hpp"
#include "hms/segment.hpp"
#include "memsim/access.hpp"

namespace tahoe::hms {

struct MigrationStats {
  std::uint64_t migrations = 0;        ///< chunk moves performed
  std::uint64_t bytes_moved = 0;       ///< total bytes copied
  std::uint64_t failed_no_space = 0;   ///< refused: destination arena full
  std::uint64_t copy_aborts = 0;       ///< copies aborted mid-flight
  std::uint64_t alloc_fallbacks = 0;   ///< creates that fell back to another tier
  /// Moves into each destination tier, indexed by TierId (sized on first
  /// use).
  std::vector<std::uint64_t> to_tier;
  /// Bytes moved per owning tenant, indexed by OwnerId (sized on first
  /// use; moves of unowned objects are not recorded here).
  std::vector<std::uint64_t> bytes_moved_by_owner;
};

/// Outcome of a single chunk-migration attempt. Aborts are transient
/// (worth retrying); no-space is not (retrying without eviction cannot
/// succeed).
enum class MigrateResult { kMoved, kAlreadyThere, kNoSpace, kAborted };

class ObjectRegistry {
 public:
  /// Slots in the object table. Generous relative to any workload in the
  /// repo; the table is a lazily paged segment allocation, so unused slots
  /// cost no physical memory.
  static constexpr std::uint32_t kDefaultSlotCapacity = 65536;

  /// One capacity per tier, indexed by DeviceId (kDram, kNvm, ...).
  /// Virtual backing skips payload allocation and copies — simulation-only
  /// runs use it to model multi-GiB tiers cheaply.
  explicit ObjectRegistry(const std::vector<std::uint64_t>& tier_capacities,
                          Backing backing = Backing::Real);

  ObjectRegistry(const ObjectRegistry&) = delete;
  ObjectRegistry& operator=(const ObjectRegistry&) = delete;

  /// Allocate a data object of `bytes`, split into `num_chunks` equal-ish
  /// chunks, initially placed on `initial`. When `initial` cannot hold a
  /// chunk (genuinely full, or an injected allocation fault), the chunk
  /// gracefully falls back to the other tiers and the actual device is
  /// recorded (see MigrationStats::alloc_fallbacks). Throws only when no
  /// tier can hold it.
  ObjectId create(const std::string& name, std::uint64_t bytes,
                  memsim::DeviceId initial, std::size_t num_chunks = 1);

  /// Destroy an object and release its storage. The slot is recycled with
  /// a bumped generation, so the old id becomes detectably stale.
  void destroy(ObjectId id);

  const DataObject& get(ObjectId id) const;
  DataObject& get_mutable(ObjectId id);
  std::size_t num_objects() const;
  std::vector<ObjectId> live_objects() const;

  /// Current backing pointer of chunk `chunk` (typed views layer on top).
  std::byte* chunk_ptr(ObjectId id, std::size_t chunk = 0) const;

  /// Register an application alias slot to be rewritten after migrations
  /// of the (unchunked) object.
  void register_alias(ObjectId id, void** slot);

  /// Move one chunk to `dst`. Copies the payload, frees the old backing,
  /// atomically redirects the chunk pointer and rewrites aliases.
  /// Returns false (and leaves everything untouched) when the destination
  /// arena has no room.
  bool migrate_chunk(ObjectId id, std::size_t chunk, memsim::DeviceId dst);

  /// Like migrate_chunk() but reports *why* a move did not happen, so the
  /// MigrationEngine can retry transient aborts and give up on exhaustion.
  MigrateResult try_migrate_chunk(ObjectId id, std::size_t chunk,
                                  memsim::DeviceId dst);

  /// Convenience: migrate every chunk of the object.
  bool migrate(ObjectId id, memsim::DeviceId dst);

  Arena& arena(memsim::DeviceId dev);
  const Arena& arena(memsim::DeviceId dev) const;
  std::size_t num_tiers() const noexcept { return arenas_.size(); }

  /// Last (largest, slowest) tier of the hierarchy — the default home of
  /// every object. Mirrors memsim::Machine::capacity_tier().
  memsim::TierId capacity_tier() const noexcept {
    return static_cast<memsim::TierId>(arenas_.empty() ? 0
                                                       : arenas_.size() - 1);
  }

  /// Configure the chain of tiers tried when an allocation's requested
  /// tier is full (default: every other tier in device order). The chain
  /// lists tiers to try *after* the requested one; entries equal to the
  /// requested tier are skipped, tiers missing from the chain are never
  /// tried. Pass an empty chain to restore the default.
  void set_fallback_order(std::vector<memsim::TierId> order);

  const MigrationStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = MigrationStats{}; }

  /// Bytes currently resident per tier across all objects.
  std::uint64_t resident_bytes(memsim::DeviceId dev) const;

  /// Tag an object with its owning tenant (multi-tenant serving runs).
  void set_owner(ObjectId id, OwnerId owner);

  /// Bytes of `owner`-tagged objects currently resident on `dev`.
  std::uint64_t resident_bytes_owned(OwnerId owner,
                                     memsim::DeviceId dev) const;

  /// Total footprint of `owner`-tagged objects across all tiers.
  std::uint64_t total_bytes_owned(OwnerId owner) const;

  /// The segment hosting every registry-managed structure. Copy its bytes
  /// (or fork) and Segment::attach() the image to walk this registry from
  /// anywhere — see walk.hpp.
  Segment& segment() noexcept { return segment_; }
  const Segment& segment() const noexcept { return segment_; }

 private:
  /// Allocate `bytes` on `initial`, retrying through injected failures and
  /// falling back to the other tiers (Unimem-style fallback-to-NVM
  /// semantics). Returns nullptr only when every tier is truly full.
  /// `chosen` receives the tier that served the allocation.
  void* alloc_with_fallback(std::uint64_t bytes, memsim::DeviceId initial,
                            memsim::DeviceId& chosen);

  RegistryRoot* root() const { return segment_.at_as<RegistryRoot>(root_off_); }
  ObjectSlot* slot_at(std::uint32_t index) const {
    return root()->slots.get() + index;
  }
  /// Validate a generation-tagged id and return its slot; throws
  /// ContractError on unknown/stale ids. Caller holds mutex_.
  ObjectSlot& resolve(ObjectId id) const;
  void publish_gauges_locked();

  Backing backing_;
  Segment segment_;
  std::uint64_t root_off_ = 0;
  std::vector<std::unique_ptr<Arena>> arenas_;
  std::vector<memsim::TierId> fallback_order_;  ///< empty = device order
  mutable std::mutex mutex_;
  MigrationStats stats_;
  /// Destination tiers already warned about a refused (no-space) migration
  /// — warn once per tier; the counter keeps the full tally. Atomic flags:
  /// concurrent alloc/migration paths may race on the first warning.
  std::unique_ptr<std::atomic<bool>[]> warned_no_space_;
  trace::Counter* slots_live_gauge_ = nullptr;
  trace::Counter* bytes_used_gauge_ = nullptr;
  trace::Counter* freelist_blocks_gauge_ = nullptr;
  trace::Counter* freelist_bytes_gauge_ = nullptr;
};

/// Typed view over an unchunked object. The pointer is re-read on every
/// data() call, so a handle stays valid across migrations.
template <typename T>
class Handle {
 public:
  Handle() = default;
  Handle(ObjectRegistry* reg, ObjectId id, std::size_t count)
      : reg_(reg), id_(id), count_(count) {}

  T* data() const {
    return reinterpret_cast<T*>(reg_->chunk_ptr(id_, 0));
  }
  std::span<T> span() const { return {data(), count_}; }
  std::size_t size() const noexcept { return count_; }
  ObjectId id() const noexcept { return id_; }
  bool valid() const noexcept { return reg_ != nullptr; }

  T& operator[](std::size_t i) const { return data()[i]; }

 private:
  ObjectRegistry* reg_ = nullptr;
  ObjectId id_ = kInvalidObject;
  std::size_t count_ = 0;
};

/// Allocate a typed unchunked object ("tahoe_malloc").
template <typename T>
Handle<T> make_array(ObjectRegistry& reg, const std::string& name,
                     std::size_t count, memsim::DeviceId initial) {
  const ObjectId id = reg.create(name, count * sizeof(T), initial, 1);
  return Handle<T>(&reg, id, count);
}

}  // namespace tahoe::hms
