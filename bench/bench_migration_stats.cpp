// TAB-5: data-migration details for HMS with Tahoe (NVM = 1/2 DRAM
// bandwidth): migration count, migrated volume, pure runtime cost, and
// the fraction of movement overlapped with computation.
#include "bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");
  const bench::BenchConfig config = bench::config_from_flags(flags, "bw:0.5");

  Table table({"workload", "migrations", "moved-MiB", "runtime-cost-%",
               "overlap-%", "strategy"});
  for (const std::string& name : workloads::workload_names()) {
    const core::RunReport r = bench::run_tahoe(name, config);
    table.add_row({name, std::to_string(r.migrations),
                   Table::num(to_mib(r.bytes_moved), 1),
                   Table::num(r.runtime_cost_fraction() * 100.0),
                   Table::num(r.overlap_fraction() * 100.0, 1), r.strategy});
  }
  bench::emit(
      "TAB-5: migration details for HMS with Tahoe (NVM = 1/2 DRAM "
      "bandwidth)",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
