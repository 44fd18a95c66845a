#include "core/calibration.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "hms/placement.hpp"
#include "task/graph.hpp"
#include "task/sim_executor.hpp"

namespace tahoe::core {
namespace {

constexpr hms::ObjectId kCalArray = 0;
constexpr std::uint64_t kStreamBytes = 256 * kMiB;
constexpr std::uint64_t kChaseBytes = 64 * kMiB;

struct MicroResult {
  double duration = 0.0;
  memsim::SampledCounts counts;
};

/// Run a one-group synthetic graph on the given tier and sample it.
MicroResult run_micro(const memsim::Machine& machine, memsim::DeviceId tier,
                      unsigned tasks, const memsim::ObjectTraffic& per_task) {
  task::GraphBuilder gb;
  gb.begin_group("cal");
  for (unsigned i = 0; i < tasks; ++i) {
    task::Task t;
    t.label = "cal-task";
    t.compute_seconds = 0.0;
    task::DataAccess a;
    a.object = kCalArray;
    a.chunk = 0;
    a.mode = per_task.stores > 0 ? task::AccessMode::ReadWrite
                                 : task::AccessMode::Read;
    a.traffic = per_task;
    t.accesses.push_back(a);
    gb.add_task(std::move(t));
  }
  const task::TaskGraph graph = gb.build();

  hms::PlacementMap placement;
  placement.set(kCalArray, 0, tier);

  task::SimExecutor exec;
  task::SimExecutor::Options opts;
  const task::SimReport& report =
      exec.run(graph, machine, placement, {}, opts);

  memsim::Sampler sampler(machine.sample_interval, machine.cpu_hz,
                          machine.seed ^ 0xca11b4a7e5eedULL);
  MicroResult out;
  out.duration = report.makespan;
  for (const task::Task& t : graph.tasks()) {
    const memsim::SampledCounts s =
        sampler.sample(t.accesses.front().traffic, report.task_seconds[t.id]);
    out.counts.loads += s.loads;
    out.counts.stores += s.stores;
    out.counts.samples_with_access += s.samples_with_access;
    out.counts.total_samples += s.total_samples;
  }
  return out;
}

memsim::ObjectTraffic stream_traffic(std::uint64_t bytes, unsigned tasks) {
  // STREAM copy-like: read one element, write one element, no reuse, no
  // dependent chains.
  memsim::ObjectTraffic t;
  const std::uint64_t elems = bytes / sizeof(double) / tasks;
  t.loads = elems;
  t.stores = elems;
  t.footprint = bytes / tasks;
  t.dep_frac = 0.0;
  t.locality = 0.0;
  return t;
}

memsim::ObjectTraffic chase_traffic(std::uint64_t bytes) {
  // One fully dependent chain over the whole array, loads only.
  memsim::ObjectTraffic t;
  t.loads = bytes / kCacheLine;
  t.stores = 0;
  t.footprint = bytes;
  t.dep_frac = 1.0;
  t.locality = 0.0;
  t.spatial = 0.0;  // every hop lands on a fresh line
  return t;
}

}  // namespace

CalibrationResult calibrate(const memsim::Machine& machine) {
  CalibrationResult result;
  const std::uint64_t interval = machine.sample_interval;
  const double line = static_cast<double>(kCacheLine);

  // ---- Peak bandwidth via Eq. (1): STREAM at maximum concurrency. ----
  for (const memsim::DeviceId tier : {memsim::kDram, memsim::kNvm}) {
    const MicroResult r = run_micro(machine, tier, machine.workers,
                                    stream_traffic(kStreamBytes,
                                                   machine.workers));
    TAHOE_ASSERT(r.duration > 0.0, "calibration run took no time");
    const double active = r.counts.active_fraction();
    const double est_bytes =
        (r.counts.est_loads(interval) + r.counts.est_stores(interval)) * line;
    const double bw = est_bytes / (std::max(active, 1e-9) * r.duration);
    if (tier == memsim::kDram) {
      result.bw_peak_dram = bw;
    } else {
      result.bw_peak_nvm = bw;
    }
  }

  // ---- CF_bw: STREAM on DRAM, measured / predicted. ----
  {
    const MicroResult r =
        run_micro(machine, memsim::kDram, 1, stream_traffic(kStreamBytes, 1));
    const double predicted =
        (r.counts.est_loads(interval) + r.counts.est_stores(interval)) * line /
        machine.tier(memsim::kDram).read_bw;
    TAHOE_ASSERT(predicted > 0.0, "CF_bw prediction degenerate");
    result.cf_bw = r.duration / predicted;
  }

  // ---- CF_lat: pointer chase on DRAM, measured / predicted. ----
  {
    const MicroResult r =
        run_micro(machine, memsim::kDram, 1, chase_traffic(kChaseBytes));
    const double predicted =
        r.counts.est_loads(interval) * machine.tier(memsim::kDram).read_lat_s;
    TAHOE_ASSERT(predicted > 0.0, "CF_lat prediction degenerate");
    result.cf_lat = r.duration / predicted;
  }

  return result;
}

}  // namespace tahoe::core
