// FIG-9: main comparison with NVM at 1/2 DRAM bandwidth — DRAM-only,
// NVM-only, HMS with the X-Mem-style baseline, HMS with the reactive-LRU
// baseline, and HMS with Tahoe.
#include "bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");
  const bench::BenchConfig config = bench::config_from_flags(flags, "bw:0.5");

  Table table(
      {"workload", "DRAM-only", "NVM-only", "X-Mem", "Reactive", "Tahoe"});
  for (const std::string& name : workloads::workload_names()) {
    const core::RunReport dram =
        bench::run_static(name, config, bench::fastest_tier(config));
    const core::RunReport nvm = bench::run_static(name, config, bench::capacity_tier(config));
    const core::RunReport xmem = bench::run_xmem(name, config);
    const core::RunReport reactive = bench::run_reactive(name, config);
    const core::RunReport tahoe = bench::run_tahoe(name, config);
    table.add_row({name, "1.00", Table::num(bench::normalized(nvm, dram)),
                   Table::num(bench::normalized(xmem, dram)),
                   Table::num(bench::normalized(reactive, dram)),
                   Table::num(bench::normalized(tahoe, dram))});
  }
  bench::emit(
      "FIG-9: normalized execution time, NVM = 1/2 DRAM bandwidth (lower is "
      "better; 1.00 = DRAM-only)",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
