// FIG-14: Optane-PMM-style platform with asymmetric read/write — DRAM-only,
// NVM-only, hardware Memory Mode (DRAM as a direct-mapped cache), X-Mem,
// Tahoe without read/write distinction (Eqs. 2/3) and Tahoe with it
// (Eqs. 4/5).
#include "baselines/hwcache.hpp"
#include "bench_util.hpp"

namespace {

// Memory-Mode run: software cannot place data; the whole footprint lives
// on the cached effective device.
double memory_mode_seconds(const std::string& name,
                           const tahoe::bench::BenchConfig& config) {
  using namespace tahoe;
  // Footprint: sum of the workload's objects.
  auto app = workloads::make_workload(name, config.scale);
  hms::ObjectRegistry probe({config.dram_capacity, config.nvm_capacity},
                            hms::Backing::Virtual);
  hms::ChunkingPolicy chunking;
  chunking.dram_capacity = config.dram_capacity;
  app->setup(probe, chunking);
  std::uint64_t footprint = 0;
  for (const hms::ObjectId id : probe.live_objects()) {
    footprint += probe.get(id).bytes;
  }

  core::RuntimeConfig rc = bench::runtime_config(config);
  rc.machine = baselines::memory_mode_machine(rc.machine, footprint);
  core::Runtime rt(rc);
  auto app2 = workloads::make_workload(name, config.scale);
  return rt.run_static(*app2, rt.machine().capacity_tier())
      .steady_iteration_seconds();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");
  const bench::BenchConfig config = bench::config_from_flags(flags, "optane");

  Table table({"workload", "DRAM-only", "NVM-only", "MemMode", "X-Mem",
               "Tahoe w.o drw", "Tahoe w. drw"});
  for (const std::string& name : workloads::workload_names()) {
    const core::RunReport dram =
        bench::run_static(name, config, bench::fastest_tier(config));
    const core::RunReport nvm = bench::run_static(name, config, bench::capacity_tier(config));
    const core::RunReport xmem = bench::run_xmem(name, config);
    core::TahoeOptions no_drw;
    no_drw.distinguish_rw = false;
    const core::RunReport wo = bench::run_tahoe(name, config, no_drw);
    const core::RunReport w = bench::run_tahoe(name, config);
    const double mm = memory_mode_seconds(name, config) /
                      dram.steady_iteration_seconds();
    table.add_row({name, "1.00", Table::num(bench::normalized(nvm, dram)),
                   Table::num(mm), Table::num(bench::normalized(xmem, dram)),
                   Table::num(bench::normalized(wo, dram)),
                   Table::num(bench::normalized(w, dram))});
  }
  bench::emit(
      "FIG-14: Optane-PM platform (normalized to DRAM-only; 'drw' = "
      "read/write distinction in the performance model)",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
