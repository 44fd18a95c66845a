// End-to-end checks of the tahoe_sweep fork/merge driver, including the
// child-failure contract: a cell whose child exits non-zero must surface
// as an explicit failed run entry in the merged artifact (and a non-zero
// sweep exit), never as a silently merged partial result; and a grid no
// cell could run must be rejected as a bad command line before any child
// forks.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "trace/json.hpp"

namespace tahoe {
namespace {

#ifdef TAHOE_SWEEP_BIN

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// Exit status of the sweep; its stderr lands in `err` when given. No
/// argument may hang it: a sweep still running after 60 s is killed by
/// coreutils timeout, whose exit status 124 fails the test.
int run_sweep(const std::string& args, std::string* err = nullptr) {
  const std::string err_path = ::testing::TempDir() + "sweep_stderr.txt";
  const std::string cmd = "timeout 60 " + std::string(TAHOE_SWEEP_BIN) + " " +
                          args + " > /dev/null 2>" +
                          (err != nullptr ? err_path : "&1");
  const int status = std::system(cmd.c_str());
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  EXPECT_NE(code, 124) << "tahoe_sweep " << args << " hung";
  if (err != nullptr) *err = read_bytes(err_path);
  return code;
}

trace::JsonValue read_artifact(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is) << "sweep wrote no artifact at " << path;
  return trace::parse_json(read_bytes(path));
}

TEST(Sweep, HealthyGridMergesEveryCell) {
  const std::string out = ::testing::TempDir() + "sweep_ok.json";
  ASSERT_EQ(run_sweep("--out " + out +
                      " --workloads cg --policies static-dram,static-nvm"
                      " --nvm-specs bw:0.5 --scale test --jobs 2"),
            0);
  const trace::JsonValue v = read_artifact(out);
  EXPECT_EQ(v.at("schema").string, "tahoe_sweep_v1");
  EXPECT_EQ(v.at("cells").number, 2.0);
  EXPECT_EQ(v.at("failed_cells").number, 0.0);
  ASSERT_EQ(v.at("runs").array.size(), 2u);
  for (const trace::JsonValue& run : v.at("runs").array) {
    EXPECT_TRUE(run.object.count("steady_iteration_seconds"));
    EXPECT_FALSE(run.object.count("failed"));
  }
  EXPECT_EQ(v.at("comparison").array.size(), 1u);
  EXPECT_EQ(v.at("comparison").array[0].at("rows").array.size(), 2u);
  std::remove(out.c_str());
}

TEST(Sweep, DeterministicSweepsWriteByteIdenticalArtifacts) {
  // Without --deterministic each cell's decision_seconds, and so its
  // runtime_cost_fraction, is measured wall time and differs run to run.
  std::string artifacts[2];
  for (int k = 0; k < 2; ++k) {
    const std::string out =
        ::testing::TempDir() + "sweep_det" + std::to_string(k) + ".json";
    ASSERT_EQ(run_sweep("--out " + out +
                        " --workloads cg --policies tahoe,static-dram"
                        " --nvm-specs bw:0.5 --scale test --jobs 2"
                        " --deterministic"),
              0);
    artifacts[k] = read_bytes(out);
    std::remove(out.c_str());
  }
  ASSERT_FALSE(artifacts[0].empty());
  EXPECT_TRUE(artifacts[0] == artifacts[1])
      << "two --deterministic sweeps wrote different sweep.json files";
}

TEST(Sweep, UnknownScaleIsRejectedBeforeAnyCellRuns) {
  const std::string out = ::testing::TempDir() + "sweep_scale.json";
  std::remove(out.c_str());
  EXPECT_NE(run_sweep("--out " + out +
                      " --workloads cg --policies static-dram"
                      " --nvm-specs bw:0.5 --scale bnech --jobs 1"),
            0);
  EXPECT_FALSE(std::ifstream(out).good()) << "sweep wrote " << out;
}

TEST(Sweep, NonPositiveJobsIsRejectedBeforeAnyCellRuns) {
  // With --jobs 0 the fan-out loop has no child to reap and would wait
  // forever; --jobs -1 must not wrap around to "fork every cell at once".
  for (const char* jobs : {"0", "-1"}) {
    const std::string out = ::testing::TempDir() + "sweep_jobs.json";
    std::remove(out.c_str());
    EXPECT_NE(run_sweep("--out " + out +
                        " --workloads cg --policies static-dram"
                        " --nvm-specs bw:0.5 --scale test --jobs " + jobs),
              0)
        << "--jobs " << jobs;
    EXPECT_FALSE(std::ifstream(out).good()) << "sweep wrote " << out;
  }
}

TEST(Sweep, BadGridIsRejectedBeforeAnyCellRuns) {
  // Each of these names a cell no child could run: the parent rejects it
  // with exit 2, the error and the usage, forks nothing and writes nothing.
  const std::string out = ::testing::TempDir() + "sweep_grid.json";
  for (const char* grid :
       {"--workloads nosuch", "--workloads ,", "--policies nosuch",
        "--policies ,", "--nvm-specs bogus", "--nvm-specs bw:abc",
        "--nvm-specs bw:2", "--nvm-specs lat:0.5", "--nvm-specs bw:0.5x",
        "--nvm-specs ,", "--slo-rules counter:"}) {
    std::remove(out.c_str());
    std::string err;
    EXPECT_EQ(run_sweep("--out " + out +
                            " --workloads cg --policies static-dram"
                            " --nvm-specs bw:0.5 --scale test --jobs 1 " +
                            grid,
                        &err),
              2)
        << grid;
    EXPECT_EQ(err.rfind("tahoe_sweep: ", 0), 0u) << grid << ": " << err;
    EXPECT_NE(err.find("usage: "), std::string::npos) << grid << ": " << err;
    EXPECT_EQ(err.find("cell failed"), std::string::npos) << grid << ": "
                                                          << err;
    EXPECT_FALSE(std::ifstream(out).good()) << grid << ": sweep wrote " << out;
  }
}

TEST(Sweep, EveryWorkloadTheFactoryBuildsIsAccepted) {
  // heat and cholesky are not among workloads::workload_names().
  const std::string out = ::testing::TempDir() + "sweep_apps.json";
  ASSERT_EQ(run_sweep("--out " + out +
                      " --workloads heat,cholesky --policies static-nvm"
                      " --nvm-specs bw:0.5,lat:4,optane --scale test"
                      " --jobs 2"),
            0);
  EXPECT_EQ(read_artifact(out).at("failed_cells").number, 0.0);
  std::remove(out.c_str());
}

TEST(Sweep, TelemetryCellWritesParseableTimeline) {
  // At a positive interval each cell streams its telemetry to a
  // cell-prefixed JSONL file, which the sweep leaves behind: one JSON
  // object per line.
  const std::string out = ::testing::TempDir() + "sweep_tele.json";
  const std::string telemetry = out + ".cell0.telemetry.jsonl";
  std::remove(telemetry.c_str());
  ASSERT_EQ(run_sweep("--out " + out +
                      " --workloads cg --policies static-nvm"
                      " --nvm-specs bw:0.5 --scale test --jobs 1"
                      " --telemetry-interval 0.0001"),
            0);
  EXPECT_EQ(read_artifact(out).at("failed_cells").number, 0.0);
  std::ifstream is(telemetry);
  ASSERT_TRUE(is) << "sweep wrote no telemetry at " << telemetry;
  std::size_t lines = 0;
  std::size_t intervals = 0;
  for (std::string line; std::getline(is, line); ++lines) {
    trace::JsonValue v;
    EXPECT_NO_THROW(v = trace::parse_json(line)) << "line " << lines + 1;
    ASSERT_TRUE(v.has("type")) << "line " << lines + 1 << ": " << line;
    if (v.at("type").string == "interval") ++intervals;
  }
  EXPECT_GT(intervals, 1u) << lines << " lines";
  for (const std::string& path :
       {out, telemetry, out + ".cell0.flight.json"}) {
    std::remove(path.c_str());
  }
}

TEST(Sweep, FailedCellIsMarkedNotSilentlyMerged) {
  // Cell 1 (static-nvm) cannot write its histogram file, which a directory
  // holds, so its child exits non-zero after appending its report. The
  // sweep must still write the artifact, mark the cell failed without its
  // partial report, keep the healthy cell's run intact, and exit non-zero
  // itself.
  const std::string out = ::testing::TempDir() + "sweep_fail.json";
  const std::string blocked = out + ".cell1.hist.json";
  std::filesystem::create_directories(blocked);
  ASSERT_NE(run_sweep("--out " + out +
                      " --workloads cg --policies static-dram,static-nvm"
                      " --nvm-specs bw:0.5 --scale test --jobs 2"),
            0);
  std::filesystem::remove_all(blocked);
  const trace::JsonValue v = read_artifact(out);
  EXPECT_EQ(v.at("cells").number, 2.0);
  EXPECT_EQ(v.at("failed_cells").number, 1.0);
  ASSERT_EQ(v.at("runs").array.size(), 2u);
  int failed_entries = 0;
  int healthy_entries = 0;
  for (const trace::JsonValue& run : v.at("runs").array) {
    if (run.object.count("failed")) {
      ++failed_entries;
      EXPECT_TRUE(run.at("failed").boolean);
      EXPECT_EQ(run.at("policy").string, "static-nvm");
      EXPECT_EQ(run.at("workload").string, "cg");
      // No partial results may ride along on a failed entry.
      EXPECT_FALSE(run.object.count("steady_iteration_seconds"));
    } else {
      ++healthy_entries;
      EXPECT_TRUE(run.object.count("steady_iteration_seconds"));
    }
  }
  EXPECT_EQ(failed_entries, 1);
  EXPECT_EQ(healthy_entries, 1);
  // The comparison section only ranks real runs.
  ASSERT_EQ(v.at("comparison").array.size(), 1u);
  EXPECT_EQ(v.at("comparison").array[0].at("rows").array.size(), 1u);
  std::remove(out.c_str());
}

#else

TEST(Sweep, RequiresBenchBuild) {
  GTEST_SKIP() << "tahoe_sweep is only built with TAHOE_BUILD_BENCH=ON";
}

#endif  // TAHOE_SWEEP_BIN

}  // namespace
}  // namespace tahoe
