// FIG-2: NVM-only slowdown vs DRAM-only under reduced NVM bandwidth
// (1/2, 1/4, 1/8 of DRAM). Regenerates the paper line's bandwidth-gap
// characterization at task-parallel granularity.
#include "bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");

  const std::vector<std::string> specs{"bw:0.5", "bw:0.25", "bw:0.125"};
  Table table({"workload", "DRAM", "1/2 BW", "1/4 BW", "1/8 BW"});
  for (const std::string& name : workloads::workload_names()) {
    std::vector<std::string> row{name, "1.00"};
    bench::BenchConfig base = bench::config_from_flags(flags, specs[0]);
    const core::RunReport dram =
        bench::run_static(name, base, bench::fastest_tier(base));
    for (const std::string& spec : specs) {
      bench::BenchConfig config = bench::config_from_flags(flags, spec);
      const core::RunReport nvm =
          bench::run_static(name, config, bench::capacity_tier(config));
      row.push_back(Table::num(bench::normalized(nvm, dram)));
    }
    table.add_row(std::move(row));
  }
  bench::emit(
      "FIG-2: NVM-only performance vs bandwidth (normalized to DRAM-only; "
      "higher = slower)",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
