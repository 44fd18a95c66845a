// Registry walker: enumerate a segment's objects and arenas from the
// bytes alone.
//
// walk_registry() starts from the segment header's root offset and follows
// only segment-internal references (OffsetPtrs and u64 offsets), so it
// works identically on the live registry's segment, on a memcpy'd image
// attached at a different base address, and in a forked child — that
// equivalence is the relocatability proof the relocation tests check, and
// the read path the future node-wide daemon will use. Payload addresses
// are deliberately absent from the walk: they reference process-heap
// buffers outside the segment and would differ across processes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hms/data_object.hpp"
#include "hms/segment.hpp"

namespace tahoe::hms {

struct ObjectWalk {
  ObjectId id = kInvalidObject;
  std::string name;
  std::uint64_t bytes = 0;
  OwnerId owner = kNoOwner;
  double static_ref_estimate = 0.0;
  /// (bytes, device) per chunk, in chunk order.
  std::vector<std::pair<std::uint64_t, memsim::DeviceId>> chunks;
  std::uint32_t num_aliases = 0;

  bool operator==(const ObjectWalk&) const = default;
};

struct ArenaWalk {
  std::string name;
  std::uint64_t capacity = 0;
  std::uint64_t used = 0;
  std::uint64_t live_blocks = 0;
  std::uint64_t free_ranges = 0;
  std::uint64_t largest_free_range = 0;

  bool operator==(const ArenaWalk&) const = default;
};

struct RegistryWalk {
  std::uint32_t num_tiers = 0;
  std::uint32_t live_objects = 0;
  std::uint32_t slot_capacity = 0;
  std::vector<ObjectWalk> objects;  ///< slot order
  std::vector<ArenaWalk> arenas;    ///< tier order
  /// Bytes resident per tier, summed over all live objects' chunks.
  std::vector<std::uint64_t> resident_by_tier;
  /// Per-owner per-tier residency (owner accounting); objects without an
  /// owner tag are excluded, mirroring ObjectRegistry's owned queries.
  std::map<OwnerId, std::vector<std::uint64_t>> owned_by_tier;

  bool operator==(const RegistryWalk&) const = default;

  /// One JSON document written with trace::JsonWriter, so object and
  /// arena names are escaped (test diffs, CI artifacts). Identical walks
  /// produce identical strings.
  std::string to_json() const;
};

/// Walk the registry hosted in `segment` (created by ObjectRegistry, or an
/// attached image of one). Throws ContractError when the segment has no
/// root or the layout is malformed.
RegistryWalk walk_registry(const Segment& segment);

}  // namespace tahoe::hms
