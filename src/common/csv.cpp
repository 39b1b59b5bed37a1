#include "common/csv.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace cloudqc {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  CLOUDQC_CHECK(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> row) {
  CLOUDQC_CHECK_MSG(row.size() == header_.size(),
                    "row arity must match header");
  rows_.push_back(std::move(row));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string fmt_double(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  std::string s = os.str();
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

}  // namespace cloudqc
