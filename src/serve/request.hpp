// Open-loop request generation for the serving subsystem.
//
// An OpenLoopSource emits one tenant's request stream with exponential
// inter-arrival times at a configured rate, drawn from a seeded Rng — the
// open-loop discipline: arrivals never wait for completions, so an
// overloaded server accumulates queue depth instead of silently throttling
// the offered load. All timestamps are virtual seconds on the serve
// driver's clock, which is what keeps same-seed runs byte-reproducible.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace tahoe::serve {

struct Request {
  std::uint64_t id = 0;       ///< per-tenant sequence number
  std::uint32_t tenant = 0;
  double arrival = 0.0;       ///< virtual seconds
};

class OpenLoopSource {
 public:
  OpenLoopSource(std::uint32_t tenant, double rate_hz, std::uint64_t seed)
      : rng_(seed), rate_(rate_hz), tenant_(tenant) {
    // An infinite rate would put every arrival at t = 0, and drain_until
    // would never run out of them.
    TAHOE_REQUIRE(std::isfinite(rate_hz) && rate_hz > 0.0,
                  "arrival rate must be finite and positive");
  }

  /// Append to `out` every request with arrival < `t`, in arrival order.
  /// The stream is unbounded; successive calls continue where the
  /// previous one stopped.
  void drain_until(double t, std::vector<Request>& out) {
    if (!has_pending_) draw_next();
    while (pending_.arrival < t) {
      out.push_back(pending_);
      draw_next();
    }
  }

 private:
  void draw_next() {
    // Exponential inter-arrival; 1 - u in (0, 1] keeps log() finite.
    const double u = rng_.next_double();
    clock_ += -std::log(1.0 - u) / rate_;
    pending_ = Request{next_id_++, tenant_, clock_};
    has_pending_ = true;
  }

  Rng rng_;
  double rate_ = 0.0;
  std::uint32_t tenant_ = 0;
  std::uint64_t next_id_ = 0;
  double clock_ = 0.0;
  Request pending_;
  bool has_pending_ = false;
};

}  // namespace tahoe::serve
