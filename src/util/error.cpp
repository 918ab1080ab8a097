#include "util/error.hpp"

#include <sstream>

namespace simcov::detail {

void throw_error(const char* expr, const char* file, int line,
                 const std::string& msg) {
  std::ostringstream os;
  os << msg << " [failed: " << expr << " at " << file << ":" << line << "]";
  throw Error(os.str());
}

void throw_error(const char* expr, const char* file, int line,
                 const char* msg) {
  throw_error(expr, file, line, std::string(msg));
}

}  // namespace simcov::detail
