// Move a whole object in tests: every chunk in order, through
// ObjectRegistry::migrate_chunk, the one migration path the runtime uses.
#pragma once

#include <cstddef>

#include "hms/registry.hpp"

namespace tahoe::hms {

/// Migrate every chunk of `id` to `dst`. Stops at, and returns false for,
/// the first chunk the destination has no room for; the chunks before it
/// stay moved.
inline bool migrate_object(ObjectRegistry& reg, ObjectId id,
                           memsim::DeviceId dst) {
  const std::size_t chunks = reg.get(id).num_chunks();
  for (std::size_t c = 0; c < chunks; ++c) {
    if (!reg.migrate_chunk(id, c, dst)) return false;
  }
  return true;
}

}  // namespace tahoe::hms
