// ABL-1: value of proactive (lookahead) migration — Tahoe with lookahead
// triggers vs the same plans fired only when needed, plus the reactive
// baseline. Reports normalized time and exposed stall per iteration.
#include "bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");
  const bench::BenchConfig config = bench::config_from_flags(flags, "bw:0.5");

  Table table({"workload", "proactive", "no-lookahead", "reactive",
               "stall-ms/iter(pro)", "stall-ms/iter(nolook)"});
  for (const std::string& name : workloads::workload_names()) {
    const core::RunReport dram =
        bench::run_static(name, config, bench::fastest_tier(config));
    const core::RunReport pro = bench::run_tahoe(name, config);
    core::TahoeOptions no_look;
    no_look.proactive = false;
    const core::RunReport nolook = bench::run_tahoe(name, config, no_look);
    const core::RunReport reactive = bench::run_reactive(name, config);
    const double iters =
        static_cast<double>(pro.iteration_seconds.size());
    table.add_row({name, Table::num(bench::normalized(pro, dram)),
                   Table::num(bench::normalized(nolook, dram)),
                   Table::num(bench::normalized(reactive, dram)),
                   Table::num(pro.stall_seconds / iters * 1e3),
                   Table::num(nolook.stall_seconds / iters * 1e3)});
  }
  bench::emit(
      "ABL-1: proactive-migration ablation (normalized to DRAM-only; stall "
      "= migration cost exposed on the critical path)",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
