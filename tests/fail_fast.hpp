#pragma once
// Shared check of the fail-fast tests: a job in which one rank throws must
// end (not hang) with that rank's error, the job's root cause, and no
// TeamAborted may escape pgas::Runtime::run().  Test suites named
// *FailFast get a short ctest timeout (tests/CMakeLists.txt), so a
// regression back to a hang fails in a minute.

#include <gtest/gtest.h>

#include <string>

#include "pgas/runtime.hpp"
#include "util/error.hpp"

namespace simcov::fail_fast {

/// Runs `job` and returns the message of the simcov::Error it throws;
/// records a test failure (and returns "") if it throws nothing or lets a
/// TeamAborted escape.
template <typename Job>
std::string error_of(Job&& job) {
  try {
    job();
  } catch (const pgas::TeamAborted& e) {
    ADD_FAILURE() << "TeamAborted escaped: " << e.what();
    return "";
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected the job to throw";
  return "";
}

/// Expects `what` to be the root-cause report of rank `rank` on a team of
/// `ranks`: it starts with "rank <rank>: ", holds `cause`, names no other
/// rank and does not come from a TeamAborted.
inline void expect_root_cause(const std::string& what, int rank, int ranks,
                              const std::string& cause) {
  const std::string prefix = "rank " + std::to_string(rank) + ": ";
  EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
  EXPECT_NE(what.find(cause), std::string::npos) << what;
  for (int r = 0; r < ranks; ++r) {
    if (r == rank) continue;
    EXPECT_EQ(what.find("rank " + std::to_string(r) + ":"), std::string::npos)
        << what;
  }
  EXPECT_EQ(what.find(pgas::TeamAborted().what()), std::string::npos) << what;
}

}  // namespace simcov::fail_fast
