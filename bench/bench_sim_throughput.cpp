// SIM: raw throughput of the rebuilt fluid simulator (memsim/fluid.hpp).
// Closed-loop churn at a fixed active-flow population: prefill `--active`
// flows, then replace each completion with a fresh random flow until
// `flows` total have been simulated. Measured in simulated-tasks/sec
// (completions) and events/sec (starts + completions), on 2-tier and
// 4-tier device counts, for both engines:
//
//   * indexed   — FluidSim, which switches to the per-device-heap lazy
//                 engine once the population crosses its threshold;
//   * reference — ReferenceFluidSim, the original O(active × devices)
//                 per-event scan, skipped above --ref-cap flows where its
//                 quadratic cost makes the cell pointlessly slow.
//
//   bench/bench_sim_throughput [--flows 10000,100000,1000000]
//       [--active N] [--ref-cap N] [--quick] [--check] [--csv]
//       [--report-json FILE]
//
// With --report-json every cell appends one RunReport JSON line (workload
// "sim_throughput", policy = engine, strategy = "<devices>d_<flows>",
// iteration_seconds = cell wall time, tasks_executed = flows). With
// --check the bench exits nonzero unless the indexed engine clears the
// --min-events-per-sec floor in every cell and is >= 5x the reference's
// simulated-tasks/sec in every cell of at least 100k flows where both
// engines ran (the acceptance bar for the hot-path rebuild).
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "memsim/fluid.hpp"

namespace {

using namespace tahoe;

struct CellResult {
  double seconds = 0.0;
  std::uint64_t events = 0;

  double tasks_per_sec(std::size_t flows) const {
    return static_cast<double>(flows) / seconds;
  }
  double events_per_sec() const {
    return static_cast<double>(events) / seconds;
  }
};

/// Drive `total` flows through `sim` keeping ~`active_target` in flight.
/// Demands are seeded-random, device-skewed, with occasional serial and
/// multi-device components — the shape the schedule executor produces.
template <typename Sim>
CellResult churn(Sim& sim, std::size_t total, std::size_t active_target,
                 std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t devices = sim.num_devices();
  CellResult res;
  std::size_t started = 0;
  const auto start_one = [&] {
    memsim::FlowSpec s;
    s.device_seconds.assign(devices, 0.0);
    s.device_seconds[rng.next_below(devices)] =
        1e-5 + rng.next_double() * 1e-3;
    if (rng.next_below(4) == 0) {
      s.device_seconds[rng.next_below(devices)] += rng.next_double() * 1e-4;
    }
    if (rng.next_below(4) == 0) s.serial_seconds = rng.next_double() * 1e-4;
    s.tag = started;
    sim.start_flow(std::move(s));
    ++started;
    ++res.events;
  };

  const auto begin = std::chrono::steady_clock::now();
  while (started < total && started < active_target) start_one();
  std::size_t done = 0;
  while (done < total) {
    const auto c = sim.step();
    if (!c.has_value()) {
      std::cerr << "sim ran dry after " << done << " completions\n";
      std::exit(1);
    }
    ++done;
    ++res.events;
    if (started < total) start_one();
  }
  const auto end = std::chrono::steady_clock::now();
  res.seconds = std::chrono::duration<double>(end - begin).count();
  return res;
}

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoull(item));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  Flags flags;
  flags.define_string("flows", "10000,100000,1000000",
                      "comma-separated total flow counts per cell");
  flags.define_int("active", 1024, "target concurrent-flow population");
  flags.define_int("ref-cap", 100000,
                   "largest flow count the reference engine still runs");
  flags.define_int("min-events-per-sec", 200000,
                   "indexed-engine floor enforced by --check");
  flags.define_bool("quick", false, "CI smoke: 2-tier only, smaller cells");
  flags.define_bool("check", false,
                    "enforce the events/sec floor and the >=5x speedup "
                    "over the reference at 100k+ flows");
  flags.define_bool("csv", false, "emit CSV after the table");
  tahoe::bench::register_artifact_flags(flags);
  flags.parse(argc, argv);
  const tahoe::bench::ArtifactFlags artifacts =
      tahoe::bench::apply_artifact_flags(flags);

  const bool quick = flags.get_bool("quick");
  std::vector<std::size_t> flow_counts = parse_sizes(flags.get_string("flows"));
  std::vector<std::size_t> device_counts = {2, 4};
  if (quick) {
    flow_counts = {10000, 100000};
    device_counts = {2};
  }
  const std::size_t active = flags.get_uint("active");
  const std::size_t ref_cap = flags.get_uint("ref-cap");
  const double min_events =
      static_cast<double>(flags.get_int("min-events-per-sec"));

  Table table({"devices", "flows", "engine", "Mtasks/s", "Mevents/s",
               "speedup"});
  bool ok = true;
  for (const std::size_t devices : device_counts) {
    for (const std::size_t flows : flow_counts) {
      const std::uint64_t seed = 1000 * devices + flows;
      memsim::FluidSim sim(devices);
      const CellResult indexed = churn(sim, flows, active, seed);

      double ref_tasks_per_sec = 0.0;
      if (flows <= ref_cap) {
        memsim::ReferenceFluidSim ref(devices);
        const CellResult reference = churn(ref, flows, active, seed);
        ref_tasks_per_sec = reference.tasks_per_sec(flows);
        table.add_row({std::to_string(devices), std::to_string(flows),
                       "reference",
                       Table::num(ref_tasks_per_sec / 1e6),
                       Table::num(reference.events_per_sec() / 1e6), "1.00"});
        core::RunReport report;
        report.workload = "sim_throughput";
        report.policy = "reference";
        report.strategy =
            std::to_string(devices) + "d_" + std::to_string(flows);
        report.iteration_seconds = {reference.seconds};
        report.compute_seconds = reference.seconds;
        report.tasks_executed = flows;
        tahoe::bench::append_report_json(report, artifacts.report_json);
      }

      const double speedup =
          ref_tasks_per_sec > 0.0
              ? indexed.tasks_per_sec(flows) / ref_tasks_per_sec
              : 0.0;
      table.add_row({std::to_string(devices), std::to_string(flows),
                     "indexed",
                     Table::num(indexed.tasks_per_sec(flows) / 1e6),
                     Table::num(indexed.events_per_sec() / 1e6),
                     ref_tasks_per_sec > 0.0 ? Table::num(speedup) : "-"});
      core::RunReport report;
      report.workload = "sim_throughput";
      report.policy = "indexed";
      report.strategy = std::to_string(devices) + "d_" + std::to_string(flows);
      report.iteration_seconds = {indexed.seconds};
      report.compute_seconds = indexed.seconds;
      report.tasks_executed = flows;
      tahoe::bench::append_report_json(report, artifacts.report_json);

      if (flags.get_bool("check")) {
        if (indexed.events_per_sec() < min_events) {
          std::cerr << "CHECK FAILED: indexed events/sec "
                    << indexed.events_per_sec() << " below floor "
                    << min_events << " at " << devices << "d/" << flows
                    << " flows\n";
          ok = false;
        }
        if (flows >= 100000 && ref_tasks_per_sec > 0.0 && speedup < 5.0) {
          std::cerr << "CHECK FAILED: indexed engine only " << speedup
                    << "x the reference at " << devices << "d/" << flows
                    << " flows (need >= 5x)\n";
          ok = false;
        }
      }
    }
  }

  tahoe::bench::emit("fluid simulator throughput (" + std::to_string(active) +
                         " concurrent flows, closed-loop churn)",
                     table, flags.get_bool("csv"));
  if (!ok) return 1;
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
