// FIG-4: per-object placement impact on the SP workload. Each critical
// data object (lhs / rhs / in_buffer+out_buffer) is placed alone in DRAM
// with everything else on NVM, under a bandwidth-limited and a
// latency-limited NVM — exposing which objects are bandwidth- vs
// latency-sensitive.
#include "bench_util.hpp"

namespace {

using namespace tahoe;

double pinned_normalized(const std::string& workload,
                         const bench::BenchConfig& config,
                         const std::vector<std::string>& dram_objects,
                         const core::RunReport& dram) {
  core::Runtime rt(bench::runtime_config(config));
  auto app = workloads::make_workload(workload, config.scale);
  return rt.run_pinned(*app, dram_objects).steady_iteration_seconds() /
         dram.steady_iteration_seconds();
}

}  // namespace

int main(int argc, char** argv) try {
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");

  const std::vector<std::pair<std::string, std::vector<std::string>>>
      placements{
          {"lhs in DRAM", {"lhs"}},
          {"rhs in DRAM", {"rhs"}},
          {"in+out_buffer in DRAM", {"in_buffer", "out_buffer"}},
      };

  Table table({"placement", "1/2 BW", "4x LAT"});
  const bench::BenchConfig bw = bench::config_from_flags(flags, "bw:0.5");
  const bench::BenchConfig lat = bench::config_from_flags(flags, "lat:4");
  const core::RunReport dram_bw = bench::run_static("sp", bw, bench::fastest_tier(bw));
  const core::RunReport dram_lat = bench::run_static("sp", lat, bench::fastest_tier(lat));

  table.add_row({"DRAM-only", "1.00", "1.00"});
  for (const auto& [label, objects] : placements) {
    table.add_row({label,
                   Table::num(pinned_normalized("sp", bw, objects, dram_bw)),
                   Table::num(pinned_normalized("sp", lat, objects,
                                                dram_lat))});
  }
  const core::RunReport nvm_bw = bench::run_static("sp", bw, bench::capacity_tier(bw));
  const core::RunReport nvm_lat = bench::run_static("sp", lat, bench::capacity_tier(lat));
  table.add_row({"NVM-only", Table::num(bench::normalized(nvm_bw, dram_bw)),
                 Table::num(bench::normalized(nvm_lat, dram_lat))});

  bench::emit(
      "FIG-4: impact of single-object DRAM placement on SP (normalized to "
      "DRAM-only)",
      table, csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
