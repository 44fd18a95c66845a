#include "memsim/fluid.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace tahoe::memsim {
namespace {

// Component residues below this many seconds count as drained. The scale of
// simulated runs is >= microseconds, so 1e-15 s is far below any signal.
constexpr double kEps = 1e-15;

void validate_spec(const FlowSpec& spec, std::size_t num_devices) {
  TAHOE_REQUIRE(spec.device_seconds.size() <= num_devices,
                "flow references more devices than the machine has");
  TAHOE_REQUIRE(spec.serial_seconds >= 0.0, "negative serial demand");
  for (double d : spec.device_seconds) {
    TAHOE_REQUIRE(d >= 0.0, "negative device demand");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// detail::ScanFluidCore — the original engine, arithmetic kept verbatim
// (the golden reports in tests/golden/ pin these exact floating-point
// operation sequences).
// ---------------------------------------------------------------------------

namespace detail {

ScanFluidCore::ScanFluidCore(std::size_t num_devices) { reset(num_devices); }

void ScanFluidCore::reset(std::size_t num_devices) {
  TAHOE_REQUIRE(num_devices > 0, "fluid sim needs at least one device");
  now_ = 0.0;
  flows_.clear();
  device_left_.clear();
  active_on_device_.assign(num_devices, 0);
  busy_seconds_.assign(num_devices, 0.0);
  rate_.assign(num_devices, 0.0);
  ready_.clear();
  ready_head_ = 0;
  active_count_ = 0;
}

FlowId ScanFluidCore::start_flow(const FlowSpec& spec, FlowId id) {
  const std::size_t num_dev = active_on_device_.size();
  Flow f;
  f.serial_left = spec.serial_seconds;
  f.tag = spec.tag;
  f.start_time = now_;
  device_left_.resize(device_left_.size() + num_dev, 0.0);
  double* const left = device_left_.data() + device_left_.size() - num_dev;
  for (std::size_t d = 0; d < spec.device_seconds.size(); ++d) {
    left[d] = spec.device_seconds[d];
  }
  for (std::size_t d = 0; d < num_dev; ++d) {
    if (left[d] > kEps) ++active_on_device_[d];
  }
  flows_.emplace_back(id, f);
  ++active_count_;
  return id;
}

double ScanFluidCore::next_component_dt() const {
  const std::size_t num_dev = active_on_device_.size();
  double dt = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& f = flows_[i].second;
    const double* const left = device_left(i);
    if (f.serial_left > kEps) dt = std::min(dt, f.serial_left);
    for (std::size_t d = 0; d < num_dev; ++d) {
      if (left[d] > kEps) {
        // Equal processor sharing: rate = 1 / (#flows active on device).
        const double rate = 1.0 / static_cast<double>(active_on_device_[d]);
        dt = std::min(dt, left[d] / rate);
      }
    }
  }
  return dt;
}

void ScanFluidCore::drain(double dt) {
  if (dt <= 0.0) return;
  // Rates are fixed during the interval; compute shares first, then drain.
  const std::size_t num_dev = active_on_device_.size();
  for (std::size_t d = 0; d < num_dev; ++d) {
    rate_[d] = active_on_device_[d] > 0
                   ? 1.0 / static_cast<double>(active_on_device_[d])
                   : 0.0;
  }
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i].second;
    double* const left = device_left(i);
    if (f.serial_left > kEps) {
      f.serial_left = std::max(0.0, f.serial_left - dt);
    }
    for (std::size_t d = 0; d < num_dev; ++d) {
      if (left[d] > kEps) {
        const double served = dt * rate_[d];
        const double applied = std::min(left[d], served);
        busy_seconds_[d] += applied;
        left[d] -= applied;
        if (left[d] <= kEps) {
          left[d] = 0.0;
          TAHOE_ASSERT(active_on_device_[d] > 0, "device active underflow");
          --active_on_device_[d];
        }
      }
    }
  }
  now_ += dt;
}

void ScanFluidCore::harvest_completions() {
  // Compact the active list and its residue rows, emitting completions in
  // flow-id order for determinism (the list is kept sorted by insertion,
  // i.e. by id).
  const std::size_t num_dev = active_on_device_.size();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto& [id, f] = flows_[i];
    const double* const left = device_left(i);
    bool drained = f.serial_left <= kEps;
    if (drained) {
      for (std::size_t d = 0; d < num_dev; ++d) {
        if (left[d] > kEps) {
          drained = false;
          break;
        }
      }
    }
    if (drained) {
      TAHOE_ASSERT(active_count_ > 0, "active flow count underflow");
      --active_count_;
      ready_.push_back(FlowCompletion{id, f.tag, now_, f.start_time});
    } else {
      if (keep != i) {
        flows_[keep] = flows_[i];
        std::copy(left, left + num_dev, device_left(keep));
      }
      ++keep;
    }
  }
  flows_.resize(keep);
  device_left_.resize(keep * num_dev);
}

std::optional<FlowCompletion> ScanFluidCore::step() {
  while (ready_head_ >= ready_.size()) {
    if (active_count_ == 0) return std::nullopt;
    const double dt = next_component_dt();
    TAHOE_ASSERT(dt < std::numeric_limits<double>::infinity(),
                 "active flows but nothing draining");
    drain(dt);
    harvest_completions();
  }
  FlowCompletion completion = ready_[ready_head_++];
  if (ready_head_ >= ready_.size()) {
    ready_.clear();
    ready_head_ = 0;
  }
  return completion;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// FluidSim — exact scan core below the threshold, indexed engine above.
// ---------------------------------------------------------------------------

FluidSim::FluidSim(std::size_t num_devices) : FluidSim(num_devices, Tuning{}) {}

FluidSim::FluidSim(std::size_t num_devices, Tuning tuning)
    : tuning_(tuning), core_(num_devices) {}

void FluidSim::reset(std::size_t num_devices, Tuning tuning) {
  tuning_ = tuning;
  core_.reset(num_devices);
  lazy_ = false;
  now_ = 0.0;
  active_count_ = 0;
  busy_seconds_lazy_.clear();
  active_on_device_.clear();
  rate_.clear();
  virtual_.clear();
  for (std::vector<HeapEntry>& heap : device_heap_) heap.clear();
  serial_heap_.clear();
  slots_.clear();
  free_slots_.clear();
  ready_.clear();
  ready_head_ = 0;
  finished_this_event_.clear();
  next_id_ = 0;
}

FlowId FluidSim::start_flow(const FlowSpec& spec) {
  const std::size_t num_dev = core_.active_on_device_.size();
  validate_spec(spec, num_dev);

  // A spec with no component above the drain epsilon completes right away
  // at the current time. Doing this explicitly (instead of letting the
  // harvest scan discover it) keeps device active counts — and thus every
  // other flow's sharing rate — untouched, and costs O(1).
  bool has_component = spec.serial_seconds > kEps;
  if (!has_component) {
    for (double d : spec.device_seconds) {
      if (d > kEps) {
        has_component = true;
        break;
      }
    }
  }
  if (!has_component) {
    const FlowId id = next_id_++;
    const double t = now();
    (lazy_ ? ready_ : core_.ready_)
        .push_back(FlowCompletion{id, spec.tag, t, t});
    return id;
  }

  if (!lazy_) {
    const FlowId id = core_.start_flow(spec, next_id_++);
    if (core_.active_count_ > tuning_.lazy_threshold) switch_to_lazy();
    return id;
  }
  return lazy_start_flow(spec);
}

std::optional<FlowCompletion> FluidSim::step() {
  return lazy_ ? lazy_step() : core_.step();
}

double FluidSim::device_busy_seconds(std::size_t dev) const {
  const std::vector<double>& busy = busy_seconds();
  TAHOE_REQUIRE(dev < busy.size(), "device index out of range");
  return busy[dev];
}

void FluidSim::switch_to_lazy() {
  const std::size_t num_dev = core_.active_on_device_.size();
  now_ = core_.now_;
  active_count_ = core_.active_count_;
  busy_seconds_lazy_ = core_.busy_seconds_;
  active_on_device_ = core_.active_on_device_;
  rate_.assign(num_dev, 0.0);
  virtual_.assign(num_dev, 0.0);
  for (std::size_t d = 0; d < num_dev; ++d) {
    if (active_on_device_[d] > 0) {
      rate_[d] = 1.0 / static_cast<double>(active_on_device_[d]);
    }
  }
  device_heap_.resize(num_dev);
  for (std::vector<HeapEntry>& heap : device_heap_) heap.clear();
  serial_heap_.clear();
  slots_.clear();
  free_slots_.clear();
  ready_.assign(core_.ready_.begin(), core_.ready_.end());
  ready_head_ = core_.ready_head_;

  // Seed the indexed engine from the scan core's residual demands: every
  // virtual clock starts at zero, so each component's finish key is simply
  // its remaining channel-seconds.
  slots_.reserve(core_.flows_.size());
  for (std::size_t i = 0; i < core_.flows_.size(); ++i) {
    const auto& [id, f] = core_.flows_[i];
    const double* const left = core_.device_left(i);
    LazyFlow lf;
    lf.id = id;
    lf.tag = f.tag;
    lf.start_time = f.start_time;
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    if (f.serial_left > kEps) {
      ++lf.components_left;
      serial_heap_.push_back(HeapEntry{now_ + f.serial_left, slot});
    }
    for (std::size_t d = 0; d < num_dev; ++d) {
      if (left[d] > kEps) {
        ++lf.components_left;
        device_heap_[d].push_back(HeapEntry{left[d], slot});
      }
    }
    TAHOE_ASSERT(lf.components_left > 0, "undrained flow with no components");
    slots_.push_back(lf);
  }
  const auto greater = [](const HeapEntry& a, const HeapEntry& b) {
    return a.key > b.key || (a.key == b.key && a.slot > b.slot);
  };
  std::make_heap(serial_heap_.begin(), serial_heap_.end(), greater);
  for (auto& heap : device_heap_) {
    std::make_heap(heap.begin(), heap.end(), greater);
  }

  core_.flows_.clear();
  core_.device_left_.clear();
  core_.ready_.clear();
  core_.ready_head_ = 0;
  core_.active_count_ = 0;
  lazy_ = true;
}

std::uint32_t FluidSim::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

FlowId FluidSim::lazy_start_flow(const FlowSpec& spec) {
  const FlowId id = next_id_++;
  const std::uint32_t slot = alloc_slot();
  LazyFlow& lf = slots_[slot];
  lf = LazyFlow{};
  lf.id = id;
  lf.tag = spec.tag;
  lf.start_time = now_;
  const auto greater = [](const HeapEntry& a, const HeapEntry& b) {
    return a.key > b.key || (a.key == b.key && a.slot > b.slot);
  };
  if (spec.serial_seconds > kEps) {
    ++lf.components_left;
    serial_heap_.push_back(HeapEntry{now_ + spec.serial_seconds, slot});
    std::push_heap(serial_heap_.begin(), serial_heap_.end(), greater);
  }
  for (std::size_t d = 0; d < spec.device_seconds.size(); ++d) {
    if (spec.device_seconds[d] > kEps) {
      ++lf.components_left;
      const std::uint32_t count = ++active_on_device_[d];
      rate_[d] = 1.0 / static_cast<double>(count);
      device_heap_[d].push_back(
          HeapEntry{virtual_[d] + spec.device_seconds[d], slot});
      std::push_heap(device_heap_[d].begin(), device_heap_[d].end(), greater);
    }
  }
  TAHOE_ASSERT(lf.components_left > 0, "componentless flow reached lazy path");
  ++active_count_;
  return id;
}

FluidSim::NextEvent FluidSim::lazy_next_event() const {
  NextEvent ev;
  double best = std::numeric_limits<double>::infinity();
  if (!serial_heap_.empty()) {
    best = std::max(0.0, serial_heap_.front().key - now_);
    ev.source = NextEvent::Source::Serial;
  }
  for (std::size_t d = 0; d < device_heap_.size(); ++d) {
    if (device_heap_[d].empty()) continue;
    const double dt =
        std::max(0.0, (device_heap_[d].front().key - virtual_[d]) *
                          static_cast<double>(active_on_device_[d]));
    if (dt < best) {
      best = dt;
      ev.source = NextEvent::Source::Device;
      ev.device = d;
    }
  }
  ev.dt = best;
  return ev;
}

void FluidSim::component_done(std::uint32_t slot) {
  TAHOE_ASSERT(slots_[slot].components_left > 0, "component count underflow");
  if (--slots_[slot].components_left == 0) {
    finished_this_event_.push_back(slot);
  }
}

void FluidSim::lazy_advance_by(const NextEvent& ev) {
  const auto greater = [](const HeapEntry& a, const HeapEntry& b) {
    return a.key > b.key || (a.key == b.key && a.slot > b.slot);
  };
  for (std::size_t d = 0; d < virtual_.size(); ++d) {
    if (active_on_device_[d] > 0) {
      virtual_[d] += ev.dt * rate_[d];
      busy_seconds_lazy_[d] += ev.dt;
    }
  }
  now_ += ev.dt;

  finished_this_event_.clear();
  const auto pop_serial = [&]() {
    std::pop_heap(serial_heap_.begin(), serial_heap_.end(), greater);
    const std::uint32_t slot = serial_heap_.back().slot;
    serial_heap_.pop_back();
    component_done(slot);
  };
  const auto pop_device = [&](std::size_t d) {
    auto& heap = device_heap_[d];
    std::pop_heap(heap.begin(), heap.end(), greater);
    const std::uint32_t slot = heap.back().slot;
    heap.pop_back();
    TAHOE_ASSERT(active_on_device_[d] > 0, "device active underflow");
    const std::uint32_t count = --active_on_device_[d];
    rate_[d] = count > 0 ? 1.0 / static_cast<double>(count) : 0.0;
    component_done(slot);
  };

  // The component that defined the dt is drained by construction; popping
  // it unconditionally guarantees progress even when rounding left its key
  // a hair above the advanced clock.
  if (ev.source == NextEvent::Source::Serial) {
    TAHOE_ASSERT(!serial_heap_.empty(), "event source heap empty");
    pop_serial();
  } else {
    TAHOE_ASSERT(!device_heap_[ev.device].empty(), "event source heap empty");
    pop_device(ev.device);
  }
  while (!serial_heap_.empty() && serial_heap_.front().key <= now_ + kEps) {
    pop_serial();
  }
  for (std::size_t d = 0; d < device_heap_.size(); ++d) {
    while (!device_heap_[d].empty() &&
           device_heap_[d].front().key <= virtual_[d] + kEps) {
      pop_device(d);
    }
  }

  if (finished_this_event_.empty()) return;
  // Simultaneous completions surface in flow-id order, matching the scan
  // core's id-ordered harvest.
  std::sort(finished_this_event_.begin(), finished_this_event_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return slots_[a].id < slots_[b].id;
            });
  for (const std::uint32_t slot : finished_this_event_) {
    const LazyFlow& lf = slots_[slot];
    ready_.push_back(FlowCompletion{lf.id, lf.tag, now_, lf.start_time});
    TAHOE_ASSERT(active_count_ > 0, "active flow count underflow");
    --active_count_;
    free_slots_.push_back(slot);
  }
  finished_this_event_.clear();
}

std::optional<FlowCompletion> FluidSim::lazy_step() {
  while (ready_head_ >= ready_.size()) {
    if (active_count_ == 0) return std::nullopt;
    const NextEvent ev = lazy_next_event();
    TAHOE_ASSERT(ev.source != NextEvent::Source::None,
                 "active flows but nothing draining");
    lazy_advance_by(ev);
  }
  FlowCompletion completion = ready_[ready_head_++];
  if (ready_head_ >= ready_.size()) {
    ready_.clear();
    ready_head_ = 0;
  }
  return completion;
}

}  // namespace tahoe::memsim
