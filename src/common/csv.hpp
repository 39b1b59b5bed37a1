// Small helpers for emitting experiment results: aligned console tables and
// trimmed number formatting. The bench binaries use these to print
// paper-style rows.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace cloudqc {

/// An aligned text table with a header row, printed in a fixed-width layout.
/// Cells are strings; numeric formatting is the caller's concern.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append a data row. Must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Render with column alignment to `os`.
  void print(std::ostream& os) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with `digits` significant decimals, trimming trailing
/// zeros ("12.50" -> "12.5", "3.00" -> "3").
std::string fmt_double(double v, int digits = 2);

}  // namespace cloudqc
