#include "bits/test_set.h"

#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace nc::bits {

std::size_t TestSet::checked_bit_count(std::size_t pattern_count,
                                       std::size_t pattern_length) {
  if (pattern_length != 0 &&
      pattern_count > std::numeric_limits<std::size_t>::max() / pattern_length)
    throw std::invalid_argument(
        "test set geometry " + std::to_string(pattern_count) + " x " +
        std::to_string(pattern_length) + " overflows size_t");
  return pattern_count * pattern_length;
}

TestSet TestSet::from_strings(const std::vector<std::string>& patterns) {
  TestSet ts;
  for (const auto& s : patterns) ts.append_pattern(TritVector::from_string(s));
  return ts;
}

TestSet TestSet::parse(std::istream& in) {
  TestSet ts;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments and surrounding whitespace, remembering how many
    // leading characters were dropped so columns refer to the raw line.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);

    TritVector row;
    row.resize(line.size(), Trit::Zero);
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      switch (c) {
        case '0': row.set(i, Trit::Zero); break;
        case '1': row.set(i, Trit::One); break;
        case 'x':
        case 'X': row.set(i, Trit::X); break;
        default:
          throw ParseError(lineno, first + i + 1,
                           std::string("invalid character '") + c +
                               "' (want 0/1/X)");
      }
    }
    if (ts.pattern_count() > 0 && row.size() != ts.pattern_length())
      throw ParseError(lineno, first + 1,
                       "ragged row: width " + std::to_string(row.size()) +
                           " != " + std::to_string(ts.pattern_length()));
    ts.append_pattern(row);
  }
  if (ts.pattern_count() == 0)
    throw ParseError(lineno, 0, "no pattern lines (empty test set)");
  return ts;
}

TestSet TestSet::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open test set file: " + path);
  return parse(in);
}

void TestSet::save(std::ostream& out) const {
  for (std::size_t i = 0; i < rows_; ++i)
    out << pattern(i).to_string() << '\n';
}

void TestSet::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write test set file: " + path);
  save(out);
}

void TestSet::set_pattern(std::size_t i, const TritVector& p) {
  if (p.size() != width_)
    throw std::invalid_argument("pattern width mismatch");
  for (std::size_t c = 0; c < width_; ++c) set(i, c, p.get(c));
}

void TestSet::append_pattern(const TritVector& p) {
  if (rows_ == 0 && width_ == 0) width_ = p.size();
  if (p.size() != width_)
    throw std::invalid_argument("ragged test set: pattern width " +
                                std::to_string(p.size()) + " != " +
                                std::to_string(width_));
  data_.append(p);
  ++rows_;
}

TritVector TestSet::flatten_sliced(std::size_t chains) const {
  if (chains == 0) throw std::invalid_argument("chains must be positive");
  const std::size_t depth = (width_ + chains - 1) / chains;  // cells per chain
  TritVector out;
  out.resize(rows_ * depth * chains, Trit::X);
  std::size_t pos = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t d = 0; d < depth; ++d) {
      for (std::size_t c = 0; c < chains; ++c, ++pos) {
        // Chain c holds cells [c*depth, (c+1)*depth); slice d picks its d-th.
        const std::size_t cell = c * depth + d;
        if (cell < width_) out.set(pos, at(r, cell));
      }
    }
  }
  return out;
}

TestSet TestSet::unflatten(TritVector stream, std::size_t pattern_count,
                           std::size_t pattern_length) {
  if (stream.size() != pattern_count * pattern_length)
    throw std::invalid_argument("unflatten: size mismatch");
  checked_bit_count(pattern_count, pattern_length);  // a wrapped product
  TestSet ts;
  ts.width_ = pattern_length;
  ts.rows_ = pattern_count;
  ts.data_ = std::move(stream);
  return ts;
}

}  // namespace nc::bits
