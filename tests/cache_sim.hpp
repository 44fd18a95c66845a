// Trace-driven set-associative cache simulator, the oracle test_cache
// checks the analytic CacheModel (src/memsim/cache_model.hpp) against:
// monotonicity in footprint and locality, the compulsory floor, and
// write-back accounting. Nothing in src/ uses it.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace tahoe::memsim {

struct CacheSimStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t load_misses = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t writebacks = 0;

  std::uint64_t misses() const noexcept { return load_misses + store_misses; }
  double miss_rate() const noexcept {
    return accesses == 0
               ? 0.0
               : static_cast<double>(misses()) / static_cast<double>(accesses);
  }
};

/// Set-associative, write-back, write-allocate cache with true-LRU
/// replacement.
class CacheSim {
 public:
  CacheSim(std::uint64_t capacity_bytes, std::uint32_t associativity,
           std::uint32_t line_bytes)
      : associativity_(associativity), line_bytes_(line_bytes) {
    TAHOE_REQUIRE(associativity > 0, "associativity must be positive");
    TAHOE_REQUIRE(line_bytes > 0 && std::has_single_bit(line_bytes),
                  "line size must be a power of two");
    TAHOE_REQUIRE(capacity_bytes % (static_cast<std::uint64_t>(associativity) *
                                    line_bytes) == 0,
                  "capacity must be a multiple of associativity*line");
    sets_ = capacity_bytes /
            (static_cast<std::uint64_t>(associativity) * line_bytes);
    TAHOE_REQUIRE(sets_ > 0, "cache must have at least one set");
    ways_.resize(sets_ * associativity_);
  }

  /// Simulate one access. Returns true on hit.
  bool access(std::uint64_t address, bool is_store) {
    ++stats_.accesses;
    ++tick_;
    const std::uint64_t line = address / line_bytes_;
    const std::uint64_t set = line % sets_;
    const std::uint64_t tag = line / sets_;
    Way* base = &ways_[set * associativity_];

    // Hit path.
    for (std::uint32_t w = 0; w < associativity_; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.lru = tick_;
        way.dirty = way.dirty || is_store;
        ++stats_.hits;
        return true;
      }
    }

    // Miss: find invalid way or evict true-LRU victim.
    Way* victim = base;
    for (std::uint32_t w = 0; w < associativity_; ++w) {
      Way& way = base[w];
      if (!way.valid) {
        victim = &way;
        break;
      }
      if (way.lru < victim->lru) victim = &way;
    }
    if (victim->valid && victim->dirty) ++stats_.writebacks;
    victim->valid = true;
    victim->dirty = is_store;
    victim->tag = tag;
    victim->lru = tick_;
    if (is_store) {
      ++stats_.store_misses;
    } else {
      ++stats_.load_misses;
    }
    return false;
  }

  /// Drop all contents (keeps statistics).
  void flush() {
    for (Way& way : ways_) {
      if (way.valid && way.dirty) ++stats_.writebacks;
      way = Way{};
    }
  }

  const CacheSimStats& stats() const noexcept { return stats_; }
  std::uint32_t line_bytes() const noexcept { return line_bytes_; }
  std::uint64_t sets() const noexcept { return sets_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // larger = more recently used
    bool valid = false;
    bool dirty = false;
  };

  std::uint32_t associativity_;
  std::uint32_t line_bytes_;
  std::uint64_t sets_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_;  // sets_ * associativity_, row-major by set
  CacheSimStats stats_;
};

}  // namespace tahoe::memsim
