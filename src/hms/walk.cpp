#include "hms/walk.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"
#include "hms/layout.hpp"
#include "trace/json.hpp"

namespace tahoe::hms {

RegistryWalk walk_registry(const Segment& segment) {
  const std::uint64_t root_off = segment.root();
  TAHOE_REQUIRE(root_off != 0, "segment has no registry root");
  const auto* root = segment.at_as<const RegistryRoot>(root_off);
  TAHOE_REQUIRE(root->num_tiers >= 1 && root->num_tiers <= kMaxTiers,
                "registry root is malformed (tier count)");
  TAHOE_REQUIRE(root->high_slot <= root->slot_capacity,
                "registry root is malformed (slot bounds)");

  RegistryWalk walk;
  walk.num_tiers = root->num_tiers;
  walk.live_objects = root->live_count;
  walk.slot_capacity = root->slot_capacity;
  walk.resident_by_tier.assign(root->num_tiers, 0);

  const ObjectSlot* slots = root->slots.get();
  for (std::uint32_t s = 0; s < root->high_slot; ++s) {
    const ObjectSlot& slot = slots[s];
    if (slot.in_use == 0) continue;
    const DataObject& obj = slot.object;
    ObjectWalk ow;
    ow.id = obj.id;
    ow.name = std::string(obj.name());
    ow.bytes = obj.bytes;
    ow.owner = obj.owner;
    ow.static_ref_estimate = obj.static_ref_estimate;
    ow.num_aliases = static_cast<std::uint32_t>(obj.aliases().size());
    ow.chunks.reserve(obj.num_chunks());
    for (const Chunk& c : obj.chunks()) {
      ow.chunks.emplace_back(c.bytes, c.device);
      TAHOE_REQUIRE(c.device < root->num_tiers,
                    "chunk references a tier the registry does not have");
      walk.resident_by_tier[c.device] += c.bytes;
      if (obj.owner != kNoOwner) {
        auto [it, inserted] = walk.owned_by_tier.try_emplace(
            obj.owner, std::vector<std::uint64_t>(root->num_tiers, 0));
        (void)inserted;
        it->second[c.device] += c.bytes;
      }
    }
    walk.objects.push_back(std::move(ow));
  }

  for (std::uint32_t t = 0; t < root->num_tiers; ++t) {
    const std::uint64_t arena_off = root->arena_root[t];
    TAHOE_REQUIRE(arena_off != 0, "registry root lists no arena for a tier");
    const auto* ar = segment.at_as<const ArenaRoot>(arena_off);
    ArenaWalk aw;
    aw.name = std::string(ar->name);
    aw.capacity = ar->capacity;
    aw.used = ar->used;
    aw.live_blocks = ar->live_count;
    aw.free_ranges = ar->free_count;
    for (std::uint64_t off = ar->range_head; off != 0;) {
      const auto* node = segment.at_as<const RangeNode>(off);
      if (node->live == 0) {
        aw.largest_free_range = std::max(aw.largest_free_range, node->size);
      }
      off = node->next;
    }
    walk.arenas.push_back(std::move(aw));
  }
  return walk;
}

std::string RegistryWalk::to_json() const {
  const auto u64 = [](auto v) { return static_cast<std::uint64_t>(v); };
  std::ostringstream os;
  trace::JsonWriter w(os);
  w.begin_object();
  w.kv("num_tiers", u64(num_tiers));
  w.kv("live_objects", u64(live_objects));
  w.kv("slot_capacity", u64(slot_capacity));
  w.key("objects").begin_array();
  for (const ObjectWalk& o : objects) {
    w.begin_object();
    w.kv("id", u64(o.id));
    w.kv("name", o.name);
    w.kv("bytes", o.bytes);
    w.kv("owner", u64(o.owner));
    w.kv("aliases", u64(o.num_aliases));
    w.key("chunks").begin_array();
    for (const auto& [bytes, device] : o.chunks) {
      w.begin_array().value(bytes).value(u64(device)).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("arenas").begin_array();
  for (const ArenaWalk& a : arenas) {
    w.begin_object();
    w.kv("name", a.name);
    w.kv("capacity", a.capacity);
    w.kv("used", a.used);
    w.kv("live_blocks", a.live_blocks);
    w.kv("free_ranges", a.free_ranges);
    w.kv("largest_free_range", a.largest_free_range);
    w.end_object();
  }
  w.end_array();
  w.key("resident_by_tier").begin_array();
  for (const std::uint64_t bytes : resident_by_tier) w.value(bytes);
  w.end_array();
  w.key("owned_by_tier").begin_object();
  for (const auto& [owner, tiers] : owned_by_tier) {
    w.key(std::to_string(owner)).begin_array();
    for (const std::uint64_t bytes : tiers) w.value(bytes);
    w.end_array();
  }
  w.end_object();
  w.end_object();
  return os.str();
}

}  // namespace tahoe::hms
