//===- support/Format.h - Table and number formatting ----------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small text-formatting helpers shared by the evaluation harness and the
/// bench binaries: fixed-precision numbers, percentages, and an aligned
/// ASCII table printer used to regenerate the paper's figures as tables.
/// Also the two exact-text helpers behind every bitwise contract that
/// renders doubles or strings: hex-float doubles and JSON string escaping.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_SUPPORT_FORMAT_H
#define VRP_SUPPORT_FORMAT_H

#include <ostream>
#include <string>
#include <vector>

namespace vrp {

/// Formats \p Value with \p Precision digits after the decimal point.
std::string formatDouble(double Value, unsigned Precision = 2);

/// Formats \p Fraction (in [0,1]) as a percentage, e.g. 0.914 -> "91.4%".
std::string formatPercent(double Fraction, unsigned Precision = 1);

/// Exact double rendering ("0x1.8p-1"): printf %a / strtod round-trips
/// every double bitwise, which cache keys, cache payloads and served
/// probabilities rely on.
std::string hexFloat(double Value);

/// JSON string escaping: \" \\ \n \t \r, other control bytes as \u00xx.
std::string jsonEscape(const std::string &S);

/// An aligned plain-text table. Add a header row and data rows, then print.
class TextTable {
public:
  explicit TextTable(std::vector<std::string> Header)
      : Header(std::move(Header)) {}

  /// Appends one data row; it may have fewer cells than the header.
  void addRow(std::vector<std::string> Row) { Rows.push_back(std::move(Row)); }

  /// Renders the table with a separator line under the header.
  void print(std::ostream &OS) const;

  unsigned numRows() const { return Rows.size(); }

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace vrp

#endif // VRP_SUPPORT_FORMAT_H
