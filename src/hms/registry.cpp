#include "hms/registry.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "trace/counters.hpp"

namespace tahoe::hms {
namespace {

/// Per-attempt retries before giving up on a tier. Injected allocation
/// failures are transient by construction, so a small bound suffices;
/// genuine exhaustion fails every attempt and falls through to fallback.
constexpr int kAllocAttempts = 3;

/// Metadata segment reservation: slot table (~9 MiB at the default
/// capacity) plus chunk arrays, alias tables and arena range lists. The
/// mapping is lazily paged, so the reservation costs only what is touched.
constexpr std::uint64_t kSegmentBytes = 128 * kMiB;

}  // namespace

ObjectRegistry::ObjectRegistry(const std::vector<std::uint64_t>& tier_capacities,
                               Backing backing)
    : backing_(backing), segment_(kSegmentBytes) {
  TAHOE_REQUIRE(tier_capacities.size() >= 2,
                "registry needs at least DRAM and NVM tiers");
  TAHOE_REQUIRE(tier_capacities.size() <= kMaxTiers,
                "more tiers than the segment layout supports");

  void* root_mem = segment_.alloc(sizeof(RegistryRoot));
  TAHOE_REQUIRE(root_mem != nullptr, "segment exhausted creating registry root");
  auto* r = new (root_mem) RegistryRoot{};
  root_off_ = segment_.offset_of(root_mem);

  r->num_tiers = static_cast<std::uint32_t>(tier_capacities.size());
  r->slot_capacity = kDefaultSlotCapacity;
  // The slot table comes from the fresh bump region, so its pages are
  // zero: slots are materialized lazily (placement-new on first claim)
  // rather than eagerly constructed 65536 times.
  void* slots_mem =
      segment_.alloc(sizeof(ObjectSlot) * std::uint64_t{kDefaultSlotCapacity});
  TAHOE_REQUIRE(slots_mem != nullptr, "segment exhausted creating slot table");
  r->slots = static_cast<ObjectSlot*>(slots_mem);
  segment_.set_root(root_off_);

  for (std::size_t d = 0; d < tier_capacities.size(); ++d) {
    arenas_.push_back(std::make_unique<Arena>("tier-" + std::to_string(d),
                                              tier_capacities[d], backing,
                                              segment_));
    root()->arena_root[d] = arenas_.back()->root_offset();
  }

  warned_no_space_ =
      std::make_unique<std::atomic<bool>[]>(tier_capacities.size());
  for (std::size_t d = 0; d < tier_capacities.size(); ++d) {
    warned_no_space_[d].store(false, std::memory_order_relaxed);
  }

  trace::CounterRegistry& reg = trace::global_counters();
  slots_live_gauge_ = &reg.gauge("hms.segment.slots_live");
  bytes_used_gauge_ = &reg.gauge("hms.segment.bytes_used");
  freelist_blocks_gauge_ = &reg.gauge("hms.segment.freelist_blocks");
  freelist_bytes_gauge_ = &reg.gauge("hms.segment.freelist_bytes");
  reg.gauge("hms.segment.slot_capacity").set(kDefaultSlotCapacity);
  reg.gauge("hms.segment.bytes_capacity").set(segment_.size());
  publish_gauges_locked();
}

void ObjectRegistry::publish_gauges_locked() {
  slots_live_gauge_->set(root()->live_count);
  bytes_used_gauge_->set(segment_.used());
  freelist_blocks_gauge_->set(segment_.freelist_blocks());
  freelist_bytes_gauge_->set(segment_.freelist_bytes());
}

ObjectSlot& ObjectRegistry::resolve(ObjectId id) const {
  const RegistryRoot* r = root();
  const std::uint32_t slot_idx = object_slot(id);
  const std::uint32_t gen = object_generation(id);
  TAHOE_REQUIRE(slot_idx < r->high_slot, "unknown object id");
  ObjectSlot* slot = slot_at(slot_idx);
  TAHOE_REQUIRE(slot->in_use != 0 && (slot->generation & 0xffu) == gen,
                "unknown object id");
  return *slot;
}

ObjectId ObjectRegistry::create(const std::string& name, std::uint64_t bytes,
                                memsim::DeviceId initial,
                                std::size_t num_chunks) {
  TAHOE_REQUIRE(bytes > 0, "object must have positive size");
  TAHOE_REQUIRE(num_chunks >= 1, "object needs at least one chunk");
  TAHOE_REQUIRE(initial < arenas_.size(), "initial device out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  RegistryRoot* r = root();
  TAHOE_REQUIRE(r->free_head != kNoSlot || r->high_slot < r->slot_capacity,
                "object table full");

  // The id is determined by the slot that *will* be claimed; the slot is
  // only claimed after every chunk allocation succeeded, so a failed
  // create leaves the table untouched.
  const bool recycled = r->free_head != kNoSlot;
  const std::uint32_t slot_idx = recycled ? r->free_head : r->high_slot;
  const std::uint32_t gen =
      recycled ? (slot_at(slot_idx)->generation & 0xffu) : 0;
  const ObjectId id = make_object_id(gen, slot_idx);

  void* chunks_mem = segment_.alloc(sizeof(Chunk) * num_chunks);
  TAHOE_REQUIRE(chunks_mem != nullptr,
                "segment exhausted creating chunk array");
  auto* chunks = static_cast<Chunk*>(chunks_mem);
  for (std::size_t c = 0; c < num_chunks; ++c) new (chunks + c) Chunk{};

  const std::uint64_t base = bytes / num_chunks;
  std::uint64_t assigned = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::uint64_t sz = (c + 1 == num_chunks) ? bytes - assigned : base;
    assigned += sz;
    chunks[c].bytes = sz;
    memsim::DeviceId chosen = initial;
    void* p = alloc_with_fallback(sz, initial, chosen);
    if (p == nullptr) {
      // Roll back chunks already placed so a failed create leaks nothing.
      for (std::size_t k = 0; k < c; ++k) {
        arenas_[chunks[k].device]->free(chunks[k].data());
      }
      segment_.free(chunks_mem);
      TAHOE_REQUIRE(false, "no tier can hold object '" + name + "'");
    }
    chunks[c].device = chosen;
    if (backing_ == Backing::Real) std::memset(p, 0, sz);
    chunks[c].set_data(static_cast<std::byte*>(p));
  }

  ObjectSlot* slot;
  if (recycled) {
    slot = slot_at(slot_idx);
    r->free_head = slot->next_free;
    slot->next_free = kNoSlot;
  } else {
    slot = new (slot_at(slot_idx)) ObjectSlot{};
    r->high_slot += 1;
  }
  slot->in_use = 1;
  DataObject* obj = new (&slot->object) DataObject{};
  obj->id = id;
  obj->bytes = bytes;
  obj->set_name(name);
  obj->chunks_.reset(chunks, num_chunks);
  r->live_count += 1;
  publish_gauges_locked();
  return id;
}

void ObjectRegistry::destroy(ObjectId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ObjectSlot& slot = resolve(id);
  DataObject& obj = slot.object;
  for (Chunk& c : obj.chunks()) {
    arenas_[c.device]->free(c.data());
  }
  if (obj.chunks_.data() != nullptr) segment_.free(obj.chunks_.data());
  if (obj.aliases_) segment_.free(obj.aliases_.get());
  obj.chunks_.clear();
  obj.aliases_ = nullptr;
  obj.alias_count_ = obj.alias_capacity_ = 0;

  RegistryRoot* r = root();
  slot.in_use = 0;
  slot.generation += 1;  // stale ids now fail the generation check
  slot.next_free = r->free_head;
  r->free_head = object_slot(id);
  r->live_count -= 1;
  publish_gauges_locked();
}

const DataObject& ObjectRegistry::get(ObjectId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resolve(id).object;
}

DataObject& ObjectRegistry::get_mutable(ObjectId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resolve(id).object;
}

std::size_t ObjectRegistry::num_objects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return root()->live_count;
}

std::vector<ObjectId> ObjectRegistry::live_objects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const RegistryRoot* r = root();
  std::vector<ObjectId> out;
  out.reserve(r->live_count);
  for (std::uint32_t s = 0; s < r->high_slot; ++s) {
    const ObjectSlot* slot = slot_at(s);
    if (slot->in_use != 0) out.push_back(slot->object.id);
  }
  return out;
}

std::byte* ObjectRegistry::chunk_ptr(ObjectId id, std::size_t chunk) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resolve(id).object.chunk(chunk).data();
}

void ObjectRegistry::register_alias(ObjectId id, void** slot) {
  TAHOE_REQUIRE(slot != nullptr, "null alias slot");
  const std::lock_guard<std::mutex> lock(mutex_);
  DataObject& obj = resolve(id).object;
  TAHOE_REQUIRE(!obj.chunked(),
                "alias registration is only supported for unchunked objects");
  if (obj.alias_count_ == obj.alias_capacity_) {
    const std::uint32_t cap =
        obj.alias_capacity_ == 0 ? 4 : obj.alias_capacity_ * 2;
    void* grown =
        segment_.realloc(obj.aliases_.get(), sizeof(AliasSlot) * cap);
    TAHOE_REQUIRE(grown != nullptr, "segment exhausted growing alias table");
    obj.aliases_ = static_cast<AliasSlot*>(grown);
    obj.alias_capacity_ = cap;
  }
  obj.aliases_[obj.alias_count_].slot_addr =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(slot));
  obj.alias_count_ += 1;
  *slot = obj.chunk(0).data();
}

void ObjectRegistry::set_fallback_order(std::vector<memsim::TierId> order) {
  for (const memsim::TierId t : order) {
    TAHOE_REQUIRE(t < arenas_.size(), "fallback tier out of range");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  fallback_order_ = std::move(order);
}

void* ObjectRegistry::alloc_with_fallback(std::uint64_t bytes,
                                          memsim::DeviceId initial,
                                          memsim::DeviceId& chosen) {
  // Tier order: requested tier first, then the fallback chain. By default
  // the chain is every other tier in device order (DRAM-requested objects
  // degrade toward the capacity tier, mirroring the runtime's
  // fallback-to-slow-tier policy; never silently "upgrade" capacity). A
  // configured chain restricts and reorders the tiers tried.
  std::vector<memsim::DeviceId> order{initial};
  if (fallback_order_.empty()) {
    for (memsim::DeviceId d = 0; d < arenas_.size(); ++d) {
      if (d != initial) order.push_back(d);
    }
  } else {
    for (const memsim::TierId t : fallback_order_) {
      if (t != initial) order.push_back(t);
    }
  }
  fault::FaultInjector& inj = fault::global();
  for (const memsim::DeviceId dev : order) {
    for (int attempt = 0; attempt < kAllocAttempts; ++attempt) {
      if (inj.should_fail(fault::Site::AllocFailure)) continue;
      void* p = arenas_[dev]->alloc(bytes);
      if (p != nullptr) {
        if (dev != initial) {
          ++stats_.alloc_fallbacks;
          trace::global_counters().get("alloc.fallbacks").increment();
          TAHOE_WARN("allocation of " << bytes << " B fell back from tier "
                                      << initial << " to tier " << dev);
        }
        chosen = dev;
        return p;
      }
    }
  }
  return nullptr;
}

bool ObjectRegistry::migrate_chunk(ObjectId id, std::size_t chunk,
                                   memsim::DeviceId dst) {
  const MigrateResult res = try_migrate_chunk(id, chunk, dst);
  return res == MigrateResult::kMoved || res == MigrateResult::kAlreadyThere;
}

MigrateResult ObjectRegistry::try_migrate_chunk(ObjectId id, std::size_t chunk,
                                                memsim::DeviceId dst) {
  TAHOE_REQUIRE(dst < arenas_.size(), "destination device out of range");
  const std::lock_guard<std::mutex> lock(mutex_);
  DataObject& obj = resolve(id).object;
  Chunk& c = obj.chunk(chunk);
  if (c.device == dst) return MigrateResult::kAlreadyThere;

  void* fresh = arenas_[dst]->alloc(c.bytes);
  if (fresh == nullptr) {
    ++stats_.failed_no_space;
    trace::global_counters().get("migrate.failed_no_space").increment();
    if (!warned_no_space_[dst].exchange(true, std::memory_order_relaxed)) {
      TAHOE_WARN("migration of '" << obj.name() << "' (object " << id
                                  << ") to tier " << dst
                                  << " refused: no space (warning once per "
                                     "tier; see failed_no_space in the run "
                                     "report)");
    }
    return MigrateResult::kNoSpace;
  }
  // Chaos hook: abort the copy after the destination allocation succeeded —
  // the hardest point to unwind. The fresh block is released and the chunk
  // stays fully valid on its source tier.
  if (fault::global().should_fail(fault::Site::MigrationAbort)) {
    arenas_[dst]->free(fresh);
    ++stats_.copy_aborts;
    trace::global_counters().get("migrate.copy_aborts").increment();
    return MigrateResult::kAborted;
  }
  std::byte* old = c.data();
  if (backing_ == Backing::Real) std::memcpy(fresh, old, c.bytes);
  const memsim::DeviceId src = c.device;
  c.device = dst;
  c.set_data(static_cast<std::byte*>(fresh));
  arenas_[src]->free(old);

  for (std::uint32_t a = 0; a < obj.alias_count_; ++a) {
    *reinterpret_cast<void**>(
        static_cast<std::uintptr_t>(obj.aliases_[a].slot_addr)) = fresh;
  }

  ++stats_.migrations;
  stats_.bytes_moved += c.bytes;
  if (stats_.to_tier.size() < arenas_.size()) {
    stats_.to_tier.resize(arenas_.size(), 0);
  }
  ++stats_.to_tier[dst];
  if (obj.owner != kNoOwner) {
    if (stats_.bytes_moved_by_owner.size() <= obj.owner) {
      stats_.bytes_moved_by_owner.resize(obj.owner + 1, 0);
    }
    stats_.bytes_moved_by_owner[obj.owner] += c.bytes;
  }
  return MigrateResult::kMoved;
}

bool ObjectRegistry::migrate(ObjectId id, memsim::DeviceId dst) {
  std::size_t n = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    n = resolve(id).object.num_chunks();
  }
  for (std::size_t c = 0; c < n; ++c) {
    if (!migrate_chunk(id, c, dst)) return false;
  }
  return true;
}

Arena& ObjectRegistry::arena(memsim::DeviceId dev) {
  TAHOE_REQUIRE(dev < arenas_.size(), "tier out of range");
  return *arenas_[dev];
}

const Arena& ObjectRegistry::arena(memsim::DeviceId dev) const {
  TAHOE_REQUIRE(dev < arenas_.size(), "tier out of range");
  return *arenas_[dev];
}

std::uint64_t ObjectRegistry::resident_bytes(memsim::DeviceId dev) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const RegistryRoot* r = root();
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < r->high_slot; ++s) {
    const ObjectSlot* slot = slot_at(s);
    if (slot->in_use != 0) total += slot->object.bytes_on(dev);
  }
  return total;
}

void ObjectRegistry::set_owner(ObjectId id, OwnerId owner) {
  const std::lock_guard<std::mutex> lock(mutex_);
  resolve(id).object.owner = owner;
}

std::uint64_t ObjectRegistry::resident_bytes_owned(
    OwnerId owner, memsim::DeviceId dev) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const RegistryRoot* r = root();
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < r->high_slot; ++s) {
    const ObjectSlot* slot = slot_at(s);
    if (slot->in_use != 0 && slot->object.owner == owner) {
      total += slot->object.bytes_on(dev);
    }
  }
  return total;
}

std::uint64_t ObjectRegistry::total_bytes_owned(OwnerId owner) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const RegistryRoot* r = root();
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < r->high_slot; ++s) {
    const ObjectSlot* slot = slot_at(s);
    if (slot->in_use != 0 && slot->object.owner == owner) {
      total += slot->object.bytes;
    }
  }
  return total;
}

}  // namespace tahoe::hms
