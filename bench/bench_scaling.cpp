// FIG-12: strong scaling of CG — DRAM-only, HMS with Tahoe, NVM-only —
// as the worker count grows (the task-parallel analogue of the paper's
// node-scaling study).
#include "bench_util.hpp"

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");

  Table table({"workers", "DRAM-only", "Tahoe", "NVM-only"});
  for (const std::uint32_t workers : {4u, 8u, 16u, 32u, 64u}) {
    bench::BenchConfig config = bench::config_from_flags(flags, "bw:0.6");
    config.workers = workers;
    const core::RunReport dram = bench::run_static("cg", config, bench::fastest_tier(config));
    const core::RunReport nvm = bench::run_static("cg", config, bench::capacity_tier(config));
    const core::RunReport tahoe = bench::run_tahoe("cg", config);
    table.add_row({std::to_string(workers), "1.00",
                   Table::num(bench::normalized(tahoe, dram)),
                   Table::num(bench::normalized(nvm, dram))});
  }
  bench::emit(
      "FIG-12: CG strong scaling (normalized to DRAM-only at each worker "
      "count; NVM = 0.6x DRAM bandwidth, as on the NUMA-emulated platform)",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
