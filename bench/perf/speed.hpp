// Machine-speed reference for tahoe_perf's host times.
//
// The machines this runs on share their cores and caches with other
// tenants, and a pass can run up to 1.6x slower for minutes at a time. So
// every host time is also reported scaled to a fixed machine speed: the
// measured time times kReferenceMs over the time of a fixed reference
// kernel run right after it. The kernel is the harness's own code and calls
// nothing in the repository, so a change to the runtime moves the scaled
// time as much as the raw one, while the machine's slow spells cancel.
// README.md gives the spreads this removes.
#pragma once

#include <cstdint>
#include <vector>

namespace tahoe::perf {

/// The reference kernels' median on the ledger machine (a 4-vCPU Xeon VM
/// at 2.0 GHz) in its quietest spells, so scaled times read as that
/// machine's.
inline constexpr double kReferenceMs = 1.2;

/// What a reference kernel exercises. A neighbour's load slows different
/// kinds of work by different amounts, so each measurement is scaled by the
/// kernel whose slowdowns track it best (README.md).
enum class Profile {
  /// A dependent random walk over 128 KiB with branchy hashing, a
  /// floating-point sweep over 64 KiB, then integer hashing in registers.
  kCompute,
  /// Heap nodes of varying size inserted into a std::map, every third step
  /// erasing the smallest key: the allocator and pointer-chasing mix of
  /// graph building and simulation bookkeeping.
  kAlloc,
};

class SpeedReference {
 public:
  /// `threads`: how many threads the measured work keeps busy. The kernel
  /// runs on as many at once and the slowest one counts, since a
  /// multi-threaded pass slows down when any of its cores does.
  SpeedReference(unsigned threads, Profile profile);

  /// Kernel time in ms right after `busy_ms` of measured work: the median
  /// over calls lasting about 5 % of it (1 to 64 calls), so long passes get
  /// a steadier estimate than short ones.
  double measure_after(double busy_ms);

 private:
  /// One thread's kCompute buffers, allocated once so a measurement times
  /// only the kernel (kAlloc's own allocations are its work).
  struct Lane {
    std::vector<std::uint32_t> next;  ///< one cycle through every slot
    std::vector<double> sweep;
    std::vector<double> call_ms;
  };

  static double run_kernel(Profile profile, Lane& lane);
  static void run_lane(Profile profile, Lane& lane, std::size_t calls);

  Profile profile_;
  std::vector<Lane> lanes_;
  double last_ms_ = kReferenceMs;
};

/// Times work lap by lap. A lap's scaled time is its wall time times
/// kReferenceMs over the slower of the references measured right before
/// and right after it: the machine's slow spells last seconds, and one that
/// starts or ends mid-lap shows on one side only. Work longer than the
/// machine keeps one speed is split into laps so that each part is scaled
/// by the speed it ran at.
class LapTimer {
 public:
  LapTimer(unsigned threads, Profile profile);

  /// Measure the reference the next measurement's first lap is scaled by.
  void measure_reference();
  /// Start a measurement (a pass or a set-up run) with its first lap.
  void start();
  /// End the current lap, measure the reference, start the next lap.
  void lap();

  double wall_ms() const noexcept { return wall_ms_; }
  double scaled_ms() const noexcept { return scaled_ms_; }
  /// The slowest reference a lap of this measurement was scaled by.
  double reference_ms() const noexcept { return reference_ms_; }

 private:
  SpeedReference speed_;
  double before_ms_ = 0.0;  ///< the reference measured before this lap
  double last_lap_ms_ = 0.0;
  double lap_start_ = 0.0;
  double wall_ms_ = 0.0;
  double scaled_ms_ = 0.0;
  double reference_ms_ = 0.0;
};

}  // namespace tahoe::perf
