#include "core/adaptivity.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace tahoe::core {
namespace {

/// Relative deviation that re-activates profiling (10 % in the paper).
constexpr double kThreshold = 0.10;

}  // namespace

void AdaptiveMonitor::set_baseline(std::vector<double> group_seconds) {
  baseline_ = std::move(group_seconds);
  baseline_total_ = 0.0;
  for (double s : baseline_) baseline_total_ += s;
}

bool AdaptiveMonitor::deviates(const std::vector<double>& group_seconds) const {
  TAHOE_REQUIRE(has_baseline(), "monitor has no baseline");
  if (group_seconds.size() != baseline_.size()) return true;  // shape changed

  double total = 0.0;
  for (double s : group_seconds) total += s;
  if (baseline_total_ > 0.0 &&
      std::fabs(total - baseline_total_) / baseline_total_ > kThreshold) {
    return true;
  }
  for (std::size_t g = 0; g < baseline_.size(); ++g) {
    const double base = baseline_[g];
    if (baseline_total_ <= 0.0 || base < 0.01 * baseline_total_) continue;
    if (std::fabs(group_seconds[g] - base) / base > kThreshold) return true;
  }
  return false;
}

}  // namespace tahoe::core
