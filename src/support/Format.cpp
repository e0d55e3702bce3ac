//===- support/Format.cpp - Table and number formatting -------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <algorithm>
#include <cstdio>

using namespace vrp;

std::string vrp::formatDouble(double Value, unsigned Precision) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", static_cast<int>(Precision), Value);
  return Buf;
}

std::string vrp::formatPercent(double Fraction, unsigned Precision) {
  return formatDouble(Fraction * 100.0, Precision) + "%";
}

std::string vrp::hexFloat(double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", Value);
  return Buf;
}

std::string vrp::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

void TextTable::print(std::ostream &OS) const {
  std::vector<size_t> Widths(Header.size(), 0);
  for (size_t I = 0; I < Header.size(); ++I)
    Widths[I] = Header[I].size();
  for (const auto &Row : Rows)
    for (size_t I = 0; I < Row.size() && I < Widths.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());

  auto printRow = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I < Widths.size(); ++I) {
      const std::string Cell = I < Row.size() ? Row[I] : "";
      OS << Cell << std::string(Widths[I] - Cell.size(), ' ');
      if (I + 1 != Widths.size())
        OS << "  ";
    }
    OS << "\n";
  };

  printRow(Header);
  size_t Total = 0;
  for (size_t W : Widths)
    Total += W;
  OS << std::string(Total + 2 * (Widths.empty() ? 0 : Widths.size() - 1), '-')
     << "\n";
  for (const auto &Row : Rows)
    printRow(Row);
}
