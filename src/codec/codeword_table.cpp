#include "codec/codeword_table.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "codec/decode_error.h"

namespace nc::codec {

std::string Codeword::to_string() const {
  std::string s(length, '0');
  for (unsigned i = 0; i < length; ++i)
    if ((bits >> (length - 1 - i)) & 1u) s[i] = '1';
  return s;
}

std::uint64_t Codeword::packed() const noexcept {
  std::uint64_t fields = 0;
  for (unsigned j = 0; j < length; ++j)
    fields |= std::uint64_t{(bits >> (length - 1 - j)) & 1u} << (2 * j);
  return fields;
}

namespace {

/// Lengths from Table I: C1=1, C2=2, C3..C8=5, C9=4.
constexpr std::array<unsigned, kNumClasses> kStandardLengths = {1, 2, 5, 5, 5,
                                                                5, 5, 5, 4};

}  // namespace

CodewordTable CodewordTable::standard() {
  return from_lengths(kStandardLengths);
}

CodewordTable CodewordTable::from_lengths(
    const std::array<unsigned, kNumClasses>& lengths) {
  // Exact integer Kraft check in units of 2^-31: sum of 2^(31-len) must not
  // exceed 2^31. No floating point, so adversarial length sets from the
  // optimizer cannot slip through on rounding slack.
  std::uint64_t kraft = 0;
  for (unsigned len : lengths) {
    if (len == 0 || len > 31)
      throw CodeSpecError(CodeSpecFault::kLengthOutOfRange,
                          "codeword length " + std::to_string(len) +
                              " out of range [1, 31]");
    kraft += std::uint64_t{1} << (31 - len);
  }
  if (kraft > (std::uint64_t{1} << 31))
    throw CodeSpecError(CodeSpecFault::kKraftViolation,
                        "codeword lengths violate Kraft inequality");

  // Canonical code: assign in order of (length, class index). The first code
  // of each length continues the previous code + 1, left-shifted.
  std::array<std::size_t, kNumClasses> order;
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return lengths[a] < lengths[b];
  });

  CodewordTable table;
  std::uint32_t code = 0;
  unsigned prev_len = lengths[order[0]];
  for (std::size_t cls : order) {
    code <<= (lengths[cls] - prev_len);
    prev_len = lengths[cls];
    table.words_[cls] = Codeword{code, lengths[cls]};
    ++code;
  }
  return table;
}

CodewordTable CodewordTable::frequency_directed(
    const std::array<std::size_t, kNumClasses>& counts) {
  std::array<std::size_t, kNumClasses> order;
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return counts[a] > counts[b];
  });

  std::array<unsigned, kNumClasses> sorted_lengths = kStandardLengths;
  std::sort(sorted_lengths.begin(), sorted_lengths.end());

  std::array<unsigned, kNumClasses> lengths{};
  for (std::size_t rank = 0; rank < kNumClasses; ++rank)
    lengths[order[rank]] = sorted_lengths[rank];
  return from_lengths(lengths);
}

unsigned CodewordTable::max_length() const noexcept {
  unsigned m = 0;
  for (const auto& w : words_) m = std::max(m, w.length);
  return m;
}

BlockClass CodewordTable::match(bits::TritReader& reader) const {
  const std::size_t start = reader.position();
  const unsigned maxlen = max_length();
  std::uint32_t acc = 0;
  for (unsigned len = 1; len <= maxlen; ++len) {
    acc = (acc << 1) | (reader.next_bit() ? 1u : 0u);
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      if (words_[c].length == len && words_[c].bits == acc)
        return static_cast<BlockClass>(c);
    }
  }
  throw DecodeError(DecodeFault::kInvalidCodeword, start);
}

bool CodewordTable::prefix_free() const {
  for (std::size_t a = 0; a < kNumClasses; ++a) {
    for (std::size_t b = 0; b < kNumClasses; ++b) {
      if (a == b) continue;
      const Codeword& wa = words_[a];
      const Codeword& wb = words_[b];
      if (wa.length <= wb.length &&
          (wb.bits >> (wb.length - wa.length)) == wa.bits)
        return false;
    }
  }
  return true;
}

}  // namespace nc::codec
