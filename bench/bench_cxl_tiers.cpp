// FIG-NT: the N-tier generalization on the four-tier CXL platform
// (HBM + DRAM + CXL-DRAM + Optane). For each workload: fastest-tier-only
// and capacity-tier-only static bounds, Tahoe in between, plus how many
// distinct (src, dst) tier pairs the plan actually migrated across.
#include <set>

#include "bench_util.hpp"
#include "core/calibration.hpp"

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");
  const bench::BenchConfig config = bench::config_from_flags(flags, "optane");

  // Fast tiers sized well below the working sets so placement matters;
  // --dram-mib scales the whole constrained pyramid.
  const std::uint64_t dram = config.dram_capacity;
  memsim::Machine machine = memsim::machines::cxl_platform(
      dram / 4, dram, 2 * dram, config.nvm_capacity);
  if (config.workers != 0) machine.workers = config.workers;

  core::RuntimeConfig rc = bench::runtime_config(config);
  rc.machine = machine;
  rc.attribution = true;

  Table table({"workload", "HBM-only", "Tahoe", "Optane-only", "tier-pairs"});
  for (const std::string name : {"cg", "mg", "lu", "nekproxy"}) {
    core::Runtime rt_fast(rc);
    auto app_fast = workloads::make_workload(name, config.scale);
    const core::RunReport fast =
        rt_fast.run_static(*app_fast, machine.fastest_tier());
    bench::append_report_json(fast, config.report_json);

    core::Runtime rt_cap(rc);
    auto app_cap = workloads::make_workload(name, config.scale);
    const core::RunReport cap =
        rt_cap.run_static(*app_cap, machine.capacity_tier());
    bench::append_report_json(cap, config.report_json);

    core::Runtime rt(rc);
    auto app = workloads::make_workload(name, config.scale);
    core::TahoePolicy policy(core::calibrate(machine).to_constants());
    const core::RunReport tahoe = rt.run(*app, policy);
    bench::append_report_json(tahoe, config.report_json);
    bench::append_explain_json(tahoe, config.explain_out);

    std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (const core::ObjectMigrationRow& o : tahoe.objects) {
      for (const core::TierFlowRow& f : o.flows) pairs.insert({f.src, f.dst});
    }
    table.add_row({name, "1.00", Table::num(bench::normalized(tahoe, fast)),
                   Table::num(bench::normalized(cap, fast)),
                   std::to_string(pairs.size())});
  }
  bench::emit(
      "FIG-NT: four-tier CXL platform (normalized to HBM-only; "
      "HBM = DRAM/4, CXL-DRAM = 2x DRAM; Optane capacity tier)",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
