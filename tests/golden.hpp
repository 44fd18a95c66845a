// Byte-for-byte comparison of serialized output against tests/golden/*.json.
// Regenerate deliberately with TAHOE_UPDATE_GOLDENS=1 after verifying a
// behavior change is intended: the comparison then rewrites the golden and
// skips the test instead.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef TAHOE_GOLDEN_DIR
#define TAHOE_GOLDEN_DIR "tests/golden"
#endif

namespace tahoe {

inline std::string golden_path(const std::string& name) {
  return std::string(TAHOE_GOLDEN_DIR) + "/" + name;
}

/// Compare `actual` against the stored golden; with TAHOE_UPDATE_GOLDENS=1
/// rewrite the golden instead (capture mode).
inline void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("TAHOE_UPDATE_GOLDENS") != nullptr) {
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write golden " << path;
    os << actual;
    GTEST_SKIP() << "golden " << name << " updated";
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "missing golden " << path
                         << " (run with TAHOE_UPDATE_GOLDENS=1 to capture)";
  std::ostringstream buf;
  buf << is.rdbuf();
  EXPECT_EQ(buf.str(), actual) << "run diverged from the golden " << name;
}

}  // namespace tahoe
