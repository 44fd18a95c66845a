// FIG-11: contribution of the four major techniques to the total
// improvement over NVM-only — cross-phase global search, phase-local
// search, partitioning large data objects (chunking), and initial data
// placement — applied cumulatively in that order.
#include <algorithm>

#include "bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");
  const bench::BenchConfig config = bench::config_from_flags(flags, "bw:0.5");

  Table table({"workload", "global-search%", "local-search%", "chunking%",
               "initial-placement%"});
  for (const std::string& name : workloads::workload_names()) {
    const double nvm = bench::run_static(name, config, bench::capacity_tier(config))
                           .steady_iteration_seconds();

    core::TahoeOptions global_only;
    global_only.strategy = core::TahoeOptions::Strategy::GlobalOnly;
    core::TahoeOptions auto_strategy;  // global + local, pick best

    bench::Tweaks bare;
    bare.initial_placement = false;
    bare.chunking = false;
    bench::Tweaks with_chunking = bare;
    with_chunking.chunking = true;
    bench::Tweaks full = with_chunking;
    full.initial_placement = true;

    const double t1 = bench::run_tahoe(name, config, global_only, bare)
                          .steady_iteration_seconds();
    const double t2 = bench::run_tahoe(name, config, auto_strategy, bare)
                          .steady_iteration_seconds();
    const double t3 =
        bench::run_tahoe(name, config, auto_strategy, with_chunking)
            .steady_iteration_seconds();
    // Initial placement mostly affects the early iterations; measure its
    // contribution on the whole run rather than the steady state.
    const double t3_total =
        bench::run_tahoe(name, config, auto_strategy, with_chunking)
            .total_seconds();
    const double t4_total = bench::run_tahoe(name, config, auto_strategy, full)
                                .total_seconds();
    // Scale the initial-placement whole-run gain to per-iteration units.
    const double iters =
        static_cast<double>(std::max<std::size_t>(
            bench::run_static(name, config, bench::fastest_tier(config))
                .iteration_seconds.size(),
            1));
    const double init_gain = (t3_total - t4_total) / iters;

    // Contributions are the positive increments of the cumulative
    // application, normalized to sum to 100% (the paper's stacked bars).
    const double g1 = std::max(nvm - t1, 0.0);
    const double g2 = std::max(t1 - t2, 0.0);
    const double g3 = std::max(t2 - t3, 0.0);
    const double g4 = std::max(init_gain, 0.0);
    const double denom = std::max(g1 + g2 + g3 + g4, 1e-12);
    auto pct = [&](double gain) {
      return Table::num(gain / denom * 100.0, 1);
    };
    table.add_row({name, pct(g1), pct(g2), pct(g3), pct(g4)});
  }
  bench::emit(
      "FIG-11: per-technique contribution to the improvement over NVM-only "
      "(% of total gain; cumulative application order: global, +local, "
      "+chunking, +initial placement)",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
