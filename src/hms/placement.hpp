// PlacementMap: where each (object, chunk) unit currently lives — or, for
// the planner, where a hypothetical plan puts it. Cheap to copy (plans fork
// it), defaulting unknown units to NVM, which matches the system's default
// initial placement.
//
// The entries are one vector of (unit, tier) pairs sorted by unit: a lookup
// is a binary search over contiguous memory, a copy is one allocation, and
// iteration runs in ascending unit order. Two maps holding the same entries
// compare equal whatever order they were set in.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hms/data_object.hpp"
#include "memsim/access.hpp"

namespace tahoe::hms {

class PlacementMap {
 public:
  using Unit = std::pair<ObjectId, std::size_t>;
  using Entry = std::pair<Unit, memsim::DeviceId>;

  memsim::DeviceId device_of(ObjectId id, std::size_t chunk = 0) const {
    return find(Unit{id, chunk}).value_or(memsim::kNvm);
  }

  /// The tier `unit` was set to, or nullopt if it never was.
  std::optional<memsim::DeviceId> find(const Unit& unit) const {
    const std::size_t i = position(unit);
    if (i == entries_.size() || entries_[i].first != unit) return std::nullopt;
    return entries_[i].second;
  }

  void set(ObjectId id, std::size_t chunk, memsim::DeviceId dev) {
    const Unit unit{id, chunk};
    const std::size_t i = position(unit);
    if (i < entries_.size() && entries_[i].first == unit) {
      entries_[i].second = dev;
    } else {
      entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      Entry{unit, dev});
    }
  }

  bool operator==(const PlacementMap&) const = default;

  /// Bytes mapped to `dev` given the authoritative chunk sizes.
  template <typename SizeFn>  // uint64_t(ObjectId, std::size_t chunk)
  std::uint64_t bytes_on(memsim::DeviceId dev, SizeFn size_of) const {
    std::uint64_t total = 0;
    for (const auto& [unit, d] : entries_) {
      if (d == dev) total += size_of(unit.first, unit.second);
    }
    return total;
  }

  /// Every entry, in ascending unit order.
  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  /// Index of the first entry not below `unit`.
  std::size_t position(const Unit& unit) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), unit,
        [](const Entry& e, const Unit& u) { return e.first < u; });
    return static_cast<std::size_t>(it - entries_.begin());
  }

  std::vector<Entry> entries_;
};

}  // namespace tahoe::hms
