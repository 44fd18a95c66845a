// ABL-2: workload-variation adaptation. A drifting workload (the hot
// object switches mid-run) under Tahoe with adaptivity on vs off; the
// per-iteration series shows the re-profiling recovering performance.
#include "common/units.hpp"
#include "core/calibration.hpp"
#include "workloads/synthetic.hpp"

#include "bench_util.hpp"

namespace {

using namespace tahoe;

core::RunReport run_drift(const bench::BenchConfig& config, bool adaptive) {
  core::RuntimeConfig rc = bench::runtime_config(config);
  rc.adaptive = adaptive;
  core::Runtime rt(rc);
  workloads::DriftApp app(
      {config.dram_capacity * 3 / 4, 8, 20, 10});  // drift at iteration 10
  core::TahoePolicy policy(core::calibrate(rt.machine()).to_constants());
  core::RunReport report = rt.run(app, policy);
  bench::append_report_json(report, config.report_json);
  bench::append_explain_json(report, config.explain_out);
  return report;
}

}  // namespace

int main(int argc, char** argv) try {
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");
  bench::BenchConfig config = bench::config_from_flags(flags, "bw:0.5");
  config.dram_capacity = 64 * kMiB;

  const core::RunReport adaptive = run_drift(config, true);
  const core::RunReport frozen = run_drift(config, false);

  Table table({"iteration", "adaptive-s", "frozen-s"});
  for (std::size_t i = 0; i < adaptive.iteration_seconds.size(); ++i) {
    table.add_row({std::to_string(i),
                   Table::num(adaptive.iteration_seconds[i], 4),
                   Table::num(frozen.iteration_seconds[i], 4)});
  }
  bench::emit(
      "ABL-2: adaptivity on a drifting workload (hot object switches at "
      "iteration 10; adaptive re-profiles: " +
          std::to_string(adaptive.reprofiles) + " time(s))",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
