#include "codec/block_class.h"

#include <algorithm>

namespace nc::codec {

HalfKind classify_half(const bits::TritVector& v, std::size_t begin,
                       std::size_t len) noexcept {
  // Scalar walk with the packed word hoisted out of the inner loop: one
  // 64-bit load per 32 trits instead of a word index + shift per get().
  HalfKind kind;
  std::size_t i = begin;
  const std::size_t end = begin + len;
  while (i < end) {
    std::uint64_t w = v.packed_word(i >> 5) >> ((i & 31u) * 2);
    const std::size_t stop = std::min(end, (i & ~std::size_t{31}) + 32);
    for (; i < stop; ++i, w >>= 2) {
      switch (static_cast<bits::Trit>(w & 0x3u)) {
        case bits::Trit::Zero: kind.one_compatible = false; break;
        case bits::Trit::One: kind.zero_compatible = false; break;
        case bits::Trit::X: break;
      }
      if (kind.mismatch()) return kind;
    }
  }
  return kind;
}

}  // namespace nc::codec
