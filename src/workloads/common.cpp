#include "workloads/common.hpp"

#include "common/assert.hpp"
#include "common/flags.hpp"
#include "workloads/cg.hpp"
#include "workloads/cholesky.hpp"
#include "workloads/ft.hpp"
#include "workloads/heat.hpp"
#include "workloads/lu.hpp"
#include "workloads/mg.hpp"
#include "workloads/nekproxy.hpp"
#include "workloads/sp.hpp"

namespace tahoe::workloads {

memsim::ObjectTraffic traffic(std::uint64_t loads, std::uint64_t stores,
                              std::uint64_t footprint, double locality,
                              double dep_frac, double spatial) {
  memsim::ObjectTraffic t;
  t.loads = loads;
  t.stores = stores;
  t.footprint = footprint;
  t.locality = locality;
  t.dep_frac = dep_frac;
  t.spatial = spatial;
  return t;
}

task::DataAccess access(hms::ObjectId obj, task::AccessMode mode,
                        const memsim::ObjectTraffic& t, std::size_t chunk) {
  task::DataAccess a;
  a.object = obj;
  a.chunk = chunk;
  a.mode = mode;
  a.traffic = t;
  return a;
}

Scale parse_scale(const std::string& name) {
  if (name == "test") return Scale::Test;
  if (name == "bench") return Scale::Bench;
  throw FlagError("unknown scale '" + name + "' (test or bench)", "");
}

std::unique_ptr<core::Application> make_workload(const std::string& name,
                                                 Scale scale) {
  if (name == "cg") return std::make_unique<CgApp>(CgApp::config_for(scale));
  if (name == "ft") return std::make_unique<FtApp>(FtApp::config_for(scale));
  if (name == "bt") {
    return std::make_unique<SpApp>(SpApp::config_for(scale, SpApp::Kind::BT));
  }
  if (name == "lu") return std::make_unique<LuApp>(LuApp::config_for(scale));
  if (name == "sp") {
    return std::make_unique<SpApp>(SpApp::config_for(scale, SpApp::Kind::SP));
  }
  if (name == "mg") return std::make_unique<MgApp>(MgApp::config_for(scale));
  if (name == "heat") {
    return std::make_unique<HeatApp>(HeatApp::config_for(scale));
  }
  if (name == "cholesky") {
    return std::make_unique<CholeskyApp>(CholeskyApp::config_for(scale));
  }
  if (name == "nekproxy") {
    return std::make_unique<NekProxyApp>(NekProxyApp::config_for(scale));
  }
  TAHOE_REQUIRE(false, "unknown workload '" + name + "'");
  return nullptr;
}

std::vector<std::string> workload_names() {
  return {"cg", "ft", "bt", "lu", "sp", "mg", "nekproxy"};
}

}  // namespace tahoe::workloads
