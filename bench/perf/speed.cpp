#include "speed.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "spans.hpp"

namespace tahoe::perf {
namespace {

constexpr std::uint32_t kSlots = 1u << 15;  // 128 KiB of uint32
constexpr std::size_t kMaxCalls = 64;

/// Keeps the kernels' results alive.
std::atomic<std::uint64_t> g_sink{0};

std::uint64_t compute_kernel(const std::vector<std::uint32_t>& next,
                             std::vector<double>& sweep) {
  std::uint32_t at = 0;
  std::uint64_t h = 0;
  for (int step = 0; step < 100000; ++step) {
    at = next[at];
    h = (h ^ at) * 0x9E3779B97F4A7C15ULL;
    h = (h & 0x100) != 0 ? h + at : h ^ (h >> 29);
  }
  double acc = 0.0;
  for (int round = 0; round < 20; ++round) {
    for (double& d : sweep) {
      d = d * 1.0000001 + 1e-9;
      acc += d;
    }
  }
  for (std::uint64_t i = 0; i < 150000; ++i) {
    h = (h ^ (h >> 13)) * 0x9E3779B97F4A7C15ULL;
    h += (h & 0x100) != 0 ? i : h >> 7;
  }
  return h + static_cast<std::uint64_t>(acc);
}

std::uint64_t alloc_kernel() {
  std::map<std::uint64_t, std::unique_ptr<std::vector<double>>> live;
  std::uint64_t s = 3;
  for (int step = 0; step < 5800; ++step) {
    s = s * 6364136223846793005ULL + 1;
    live[s >> 40] = std::make_unique<std::vector<double>>(8 + (s >> 60));
    if (step % 3 == 0) live.erase(live.begin());
  }
  return live.size();
}

}  // namespace

SpeedReference::SpeedReference(unsigned threads, Profile profile)
    : profile_(profile), lanes_(threads) {
  for (Lane& lane : lanes_) {
    // Sattolo's shuffle: a single cycle, so the walk visits every slot.
    lane.next.resize(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) lane.next[i] = i;
    SplitMix64 rng(0x5eed);
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(lane.next[i], lane.next[rng.next() % i]);
    }
    lane.sweep.assign(8192, 1.0);  // 64 KiB
    lane.call_ms.resize(kMaxCalls);
  }
}

double SpeedReference::run_kernel(Profile profile, Lane& lane) {
  const double t0 = now_seconds();
  g_sink.store(profile == Profile::kAlloc
                   ? alloc_kernel()
                   : compute_kernel(lane.next, lane.sweep),
               std::memory_order_relaxed);
  return (now_seconds() - t0) * 1e3;
}

void SpeedReference::run_lane(Profile profile, Lane& lane, std::size_t calls) {
  for (std::size_t c = 0; c < calls; ++c) {
    lane.call_ms[c] = run_kernel(profile, lane);
  }
}

double SpeedReference::measure_after(double busy_ms) {
  const auto calls = static_cast<std::size_t>(std::clamp(
      0.05 * busy_ms / last_ms_, 1.0, static_cast<double>(kMaxCalls)));
  {
    std::vector<std::jthread> others;
    for (std::size_t i = 1; i < lanes_.size(); ++i) {
      others.emplace_back(&run_lane, profile_, std::ref(lanes_[i]), calls);
    }
    run_lane(profile_, lanes_[0], calls);
  }

  last_ms_ = 0.0;
  for (const Lane& lane : lanes_) {
    const auto end = lane.call_ms.begin() + static_cast<std::ptrdiff_t>(calls);
    last_ms_ = std::max(
        last_ms_, percentile(std::vector<double>(lane.call_ms.begin(), end),
                             0.5));
  }
  return last_ms_;
}

LapTimer::LapTimer(unsigned threads, Profile profile)
    : speed_(threads, profile) {}

void LapTimer::measure_reference() {
  before_ms_ = speed_.measure_after(last_lap_ms_);
}

void LapTimer::start() {
  wall_ms_ = 0.0;
  scaled_ms_ = 0.0;
  reference_ms_ = 0.0;
  lap_start_ = now_seconds();
}

void LapTimer::lap() {
  last_lap_ms_ = (now_seconds() - lap_start_) * 1e3;
  const double after_ms = speed_.measure_after(last_lap_ms_);
  const double reference = std::max(before_ms_, after_ms);
  wall_ms_ += last_lap_ms_;
  scaled_ms_ += last_lap_ms_ * kReferenceMs / reference;
  reference_ms_ = std::max(reference_ms_, reference);
  before_ms_ = after_ms;
  lap_start_ = now_seconds();
}

}  // namespace tahoe::perf
