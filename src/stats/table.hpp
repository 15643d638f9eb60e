#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace planck::stats {

/// Minimal fixed-width text table for bench output: benches print the same
/// rows the paper's tables/figures report, and this keeps them legible.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row) {
    rows_.push_back(std::move(row));
  }

  void print(std::FILE* out = stdout) const {
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) widen(row);

    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < row.size() ? row[i] : empty_;
        std::fprintf(out, "%-*s%s", static_cast<int>(widths[i]), cell.c_str(),
                     i + 1 < widths.size() ? "  " : "");
      }
      std::fprintf(out, "\n");
    };
    print_row(header_);
    for (std::size_t i = 0; i < widths.size(); ++i) {
      std::fprintf(out, "%s%s", std::string(widths[i], '-').c_str(),
                   i + 1 < widths.size() ? "  " : "");
    }
    std::fprintf(out, "\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::string empty_;
};

/// printf-style helper returning std::string, for building table cells.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace planck::stats
