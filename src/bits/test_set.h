// A precomputed scan test set TD: `pattern_count` test cubes, each
// `pattern_length` scan cells wide, over {0,1,X}.
//
// This is the object the ATE stores and the object every compression code in
// this library consumes. Helpers cover the two orderings the paper uses:
//  * `flatten()`        -- row-major scan order for a single scan chain;
//  * `flatten_sliced()` -- "vertical" m-bit slices for m scan chains
//    (Fig. 3/4b/4c), where consecutive stream symbols go to consecutive
//    chains.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "bits/trit_vector.h"

namespace nc::bits {

/// Malformed cube-file input: carries the 1-based line and column (column 0
/// when the whole line, not one character, is at fault; line 0 for
/// file-level problems such as an empty file).
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, std::size_t column, const std::string& what)
      : std::runtime_error(format(line, column, what)),
        line_(line),
        column_(column) {}

  std::size_t line() const noexcept { return line_; }
  std::size_t column() const noexcept { return column_; }

 private:
  static std::string format(std::size_t line, std::size_t column,
                            const std::string& what) {
    std::string s = "test set";
    if (line > 0) s += " line " + std::to_string(line);
    if (column > 0) s += ", column " + std::to_string(column);
    return s + ": " + what;
  }

  std::size_t line_;
  std::size_t column_;
};

class TestSet {
 public:
  TestSet() = default;
  /// All-X test set. Throws std::invalid_argument when pattern_count x
  /// pattern_length overflows size_t, so no loader can build a test set
  /// that claims a geometry its data does not have.
  TestSet(std::size_t pattern_count, std::size_t pattern_length)
      : width_(pattern_length),
        data_(checked_bit_count(pattern_count, pattern_length), Trit::X),
        rows_(pattern_count) {}

  /// Builds a test set from one string per pattern ("01X...", equal widths).
  static TestSet from_strings(const std::vector<std::string>& patterns);

  /// Parses the text format written by `save`: '#' comments, one pattern per
  /// line. Throws ParseError (with line/column) on a bad character, a ragged
  /// row width, or input with no pattern lines at all.
  static TestSet parse(std::istream& in);
  static TestSet load_file(const std::string& path);

  /// Writes one pattern per line, '0'/'1'/'X' characters.
  void save(std::ostream& out) const;
  void save_file(const std::string& path) const;

  std::size_t pattern_count() const noexcept { return rows_; }
  std::size_t pattern_length() const noexcept { return width_; }
  /// Total number of symbols |TD| = patterns x length.
  std::size_t bit_count() const noexcept { return rows_ * width_; }
  bool empty() const noexcept { return bit_count() == 0; }

  Trit at(std::size_t pattern, std::size_t cell) const noexcept {
    return data_.get(pattern * width_ + cell);
  }
  void set(std::size_t pattern, std::size_t cell, Trit t) noexcept {
    data_.set(pattern * width_ + cell, t);
  }

  TritVector pattern(std::size_t i) const { return data_.slice(i * width_, width_); }
  void set_pattern(std::size_t i, const TritVector& p);
  void append_pattern(const TritVector& p);

  std::size_t x_count() const noexcept { return data_.x_count(); }
  /// Fraction of X symbols in [0,1].
  double x_fraction() const noexcept { return data_.x_fraction(); }

  /// Row-major stream: pattern 0 first, scan cell 0 first.
  const TritVector& flatten() const noexcept { return data_; }

  /// Vertical multi-scan ordering for `chains` scan chains of equal length
  /// ceil(width/chains): for each pattern, emits chain-0 cell-0, chain-1
  /// cell-0, ..., chain-(m-1) cell-0, then cell 1, and so on. Cells past the
  /// pattern width (when `chains` does not divide the width) pad as X.
  TritVector flatten_sliced(std::size_t chains) const;

  /// Inverse of `flatten`: reshapes a stream into `pattern_count` rows,
  /// taking over its storage (pass an rvalue to avoid the copy). Throws
  /// std::invalid_argument when the sizes differ or the geometry overflows.
  static TestSet unflatten(TritVector stream, std::size_t pattern_count,
                           std::size_t pattern_length);

  bool operator==(const TestSet& other) const noexcept {
    return width_ == other.width_ && rows_ == other.rows_ &&
           data_ == other.data_;
  }

 private:
  static std::size_t checked_bit_count(std::size_t pattern_count,
                                       std::size_t pattern_length);

  std::size_t width_ = 0;
  TritVector data_;
  std::size_t rows_ = 0;
};

}  // namespace nc::bits
