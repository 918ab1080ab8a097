#pragma once
// Error-handling helpers shared by every module.
//
// The library is exception-based: precondition violations and invalid
// configurations throw simcov::Error (a std::runtime_error) with a message
// that includes the failing expression and source location.  Tests use the
// failure-injection suites to assert that misuse is rejected rather than
// silently accepted.

#include <stdexcept>
#include <string>

namespace simcov {

/// Exception type thrown on precondition violations and invalid configs.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn, gnu::cold]] void throw_error(const char* expr, const char* file,
                                         int line, const std::string& msg);
/// Literal-message overload: a failing check with a string-literal message
/// builds its std::string here, out of line, instead of at every call site
/// (which would keep hot accessors such as GlobalSpan::read from inlining).
[[noreturn, gnu::cold]] void throw_error(const char* expr, const char* file,
                                         int line, const char* msg);
}  // namespace detail

}  // namespace simcov

/// Precondition check that is always active (benchmarks rely on rejected
/// misconfigurations, so this is not compiled out in release builds).
#define SIMCOV_REQUIRE(expr, msg)                                         \
  do {                                                                    \
    if (!(expr)) {                                                        \
      ::simcov::detail::throw_error(#expr, __FILE__, __LINE__, (msg));    \
    }                                                                     \
  } while (0)

/// Internal invariant check; same behaviour, different wording for readers.
#define SIMCOV_ASSERT(expr, msg) SIMCOV_REQUIRE(expr, msg)
