#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/error.hpp"

namespace simcov {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  SIMCOV_REQUIRE(!header_.empty(), "table must have at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  SIMCOV_REQUIRE(cells.size() == header_.size(),
                 "row has " + std::to_string(cells.size()) +
                     " cells, table has " + std::to_string(header_.size()) +
                     " columns");
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit(header_);
  for (std::size_t c = 0; c < header_.size(); ++c)
    os << std::string(width[c], '-') << "  ";
  os << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string TextTable::to_csv() const {
  auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += "\"\"";
      else out += ch;
    }
    out += '"';
    return out;
  };
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << quote(row[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string fmt(double value, int prec) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << value;
  return os.str();
}

std::string fmt_resources(int gpus, int cpus) {
  // A stream, not `"{" + std::to_string(...)`: GCC 12 reports a false
  // -Wrestrict on that concatenation, which stops -Werror builds.
  std::ostringstream os;
  os << '{' << gpus << ',' << cpus << '}';
  return os.str();
}

}  // namespace simcov
