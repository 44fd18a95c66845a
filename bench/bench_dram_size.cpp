// FIG-13: sensitivity to the DRAM capacity of the heterogeneous system
// (128 / 256 / 512 MiB), Tahoe vs the static baselines.
#include "bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");

  Table table({"workload", "DRAM=128MiB", "DRAM=256MiB", "DRAM=512MiB",
               "NVM-only"});
  for (const std::string& name : workloads::workload_names()) {
    std::vector<std::string> row{name};
    double nvm_norm = 0.0;
    for (const std::uint64_t mib : {128ull, 256ull, 512ull}) {
      bench::BenchConfig config = bench::config_from_flags(flags, "bw:0.5");
      config.dram_capacity = mib * kMiB;
      const core::RunReport dram =
          bench::run_static(name, config, bench::fastest_tier(config));
      const core::RunReport tahoe = bench::run_tahoe(name, config);
      row.push_back(Table::num(bench::normalized(tahoe, dram)));
      if (mib == 256) {
        nvm_norm = bench::normalized(
            bench::run_static(name, config, bench::capacity_tier(config)), dram);
      }
    }
    row.push_back(Table::num(nvm_norm));
    table.add_row(std::move(row));
  }
  bench::emit(
      "FIG-13: Tahoe sensitivity to DRAM size (normalized to DRAM-only; "
      "NVM = 1/2 DRAM bandwidth)",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
