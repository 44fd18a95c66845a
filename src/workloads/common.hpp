// Shared helpers for workload construction.
//
// Workloads declare, per task, the ground-truth traffic each data object
// receives (the simulator's and sampler's input) *and* carry real kernels
// operating on the registry-backed arrays (exercised by run_real_report and
// the correctness tests). The helpers here keep those declarations compact.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/application.hpp"
#include "task/task.hpp"

namespace tahoe::workloads {

/// Modeled per-core compute throughput used to convert kernel flop counts
/// into compute_seconds for the simulator.
inline constexpr double kFlopsPerSecond = 8e9;

inline double compute_time(double flops) { return flops / kFlopsPerSecond; }

/// Compact ObjectTraffic construction. `spatial` is the same-line
/// adjacency probability (default: sequential double stream).
memsim::ObjectTraffic traffic(std::uint64_t loads, std::uint64_t stores,
                              std::uint64_t footprint, double locality,
                              double dep_frac, double spatial = 0.875);

/// Compact DataAccess construction (chunk defaults to whole-object unit 0).
task::DataAccess access(hms::ObjectId obj, task::AccessMode mode,
                        const memsim::ObjectTraffic& t, std::size_t chunk = 0);

/// Problem-size presets: Test keeps real kernels fast enough for unit
/// tests; Bench matches the evaluation configurations (use with virtual
/// backing).
enum class Scale { Test, Bench };

/// The Scale a `--scale` flag names: "test" or "bench". Any other name is
/// a FlagError, so a typo never runs at a size nobody asked for.
Scale parse_scale(const std::string& name);

/// Factory over every registered workload.
std::unique_ptr<core::Application> make_workload(const std::string& name,
                                                 Scale scale);

/// Names accepted by make_workload, in canonical (paper) order.
std::vector<std::string> workload_names();

}  // namespace tahoe::workloads
