// TAB-1: memory-device characteristics used by the simulator (the
// NVMDB/Optane survey table with end-to-end latencies).
#include "bench_util.hpp"
#include "memsim/device.hpp"

int main(int argc, char** argv) try {
  using namespace tahoe;
  Flags flags = bench::standard_flags();
  flags.parse(argc, argv);
  const bool csv = flags.get_bool("csv");

  Table table({"device", "read-lat-ns", "write-lat-ns", "read-bw-MB/s",
               "write-bw-MB/s"});
  for (const memsim::DeviceModel& d : memsim::devices::all_presets()) {
    table.add_row({d.name, Table::num(d.read_lat_s * 1e9, 0),
                   Table::num(d.write_lat_s * 1e9, 0),
                   Table::num(d.read_bw / 1e6, 0),
                   Table::num(d.write_bw / 1e6, 0)});
  }
  bench::emit("TAB-1: device characteristics (simulator presets)", table,
              csv);
  return 0;
} catch (const tahoe::FlagError& e) {
  return tahoe::flag_error_exit(argv[0], e);
}
